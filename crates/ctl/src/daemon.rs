//! The daemon skeleton farmd and fedd share: a [`Core`] hosted behind a
//! farm-net [`NetServer`], serving the versioned [`ControlOp`] surface.
//!
//! Threading model: the core is not shared — it lives on one
//! `<name>-core` thread that owns it outright. Connection handlers turn
//! each [`Frame::Control`] into a [`Request`] over an mpsc channel and
//! block (bounded) for the reply; the core serves ops strictly in
//! arrival order, so every op observes a consistent state, and the
//! loop's `recv_timeout` doubles as the core's ticker.
//!
//! Every op is audited: `<prefix>.ops`, `<prefix>.op.<kind>`,
//! `<prefix>.rejected`, `<prefix>.op_latency_us`. A `Shutdown` op (or a
//! signal, or [`Daemon::stop`]) ends the loop; ops already queued are
//! still answered, then [`Core::drained`] runs.

use std::io;
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use farm_net::{ControlOp, ControlReply, Envelope, Frame, NetServer};
use farm_telemetry::Telemetry;

use crate::config::{err, ConfigError, ServerConfig};

/// One queued control request: the op plus the handler's reply slot.
pub struct Request {
    pub op: ControlOp,
    pub reply: mpsc::Sender<ControlReply>,
}

/// What a daemon supplies to the skeleton — only what actually differs
/// between farmd and fedd.
pub trait Core: Sized + 'static {
    type Config: Clone + Send + 'static;
    /// Names the core thread (`<NAME>-core`), error frames and log lines.
    const NAME: &'static str;
    /// Prefix of the op-accounting instruments (`ctl`, `fed`).
    const PREFIX: &'static str;

    /// The `[server]` part of the daemon's configuration.
    fn server(config: &mut Self::Config) -> &mut ServerConfig;
    /// Builds the core, on the core thread, before the endpoint binds.
    fn boot(config: Self::Config) -> Self;
    /// The registry the op accounting and the transport report into.
    fn telemetry(&self) -> &Telemetry;
    /// Serves one op. Total: every failure becomes a structured reply,
    /// never a panic.
    fn serve(&mut self, op: &ControlOp) -> ControlReply;
    /// Runs after every op and at least every 5 ms while idle.
    fn tick(&mut self);
    /// Runs once, after the queue was drained on shutdown.
    fn drained(&mut self) {}
    /// Sees every accounted op after it was served.
    fn audit(&self, _kind: &'static str, _outcome: &'static str, _elapsed_us: u64) {}
    /// Spawns a thread that lives beside the core (farmd's coordinator
    /// registration); it must exit once `stop` is set.
    fn companion(
        _config: &Self::Config,
        _local: SocketAddr,
        _stop: &Arc<AtomicBool>,
        _telemetry: &Telemetry,
    ) -> io::Result<Option<thread::JoinHandle<()>>> {
        Ok(None)
    }
}

/// The core thread's loop: serve ops in order with their accounting,
/// tick between them; on shutdown answer whatever the handlers already
/// queued (they block on these replies), then let the core finish.
pub fn run<C: Core>(core: &mut C, rx: &mpsc::Receiver<Request>, stop: &AtomicBool) {
    let telemetry = core.telemetry().clone();
    let prefix = C::PREFIX;
    let ops = telemetry.counter(&format!("{prefix}.ops"));
    let rejected = telemetry.counter(&format!("{prefix}.rejected"));
    let latency = telemetry.latency_histogram(&format!("{prefix}.op_latency_us"));
    while !stop.load(Ordering::Relaxed) {
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(Request { op, reply }) => {
                let started = Instant::now();
                let kind = op.kind();
                ops.inc();
                telemetry.counter(&format!("{prefix}.op.{kind}")).inc();
                let out = core.serve(&op);
                let elapsed_us = started.elapsed().as_micros() as u64;
                latency.record(elapsed_us);
                let outcome = match &out {
                    ControlReply::Rejected { .. } | ControlReply::CompileFailed { .. } => {
                        rejected.inc();
                        "rejected"
                    }
                    _ => "ok",
                };
                core.audit(kind, outcome, elapsed_us);
                let _ = reply.send(out);
                if matches!(op, ControlOp::Shutdown) {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // The daemon handle was dropped without a shutdown op.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        core.tick();
    }
    while let Ok(Request { op, reply }) = rx.try_recv() {
        let out = match op {
            ControlOp::Shutdown => ControlReply::Ok,
            op => core.serve(&op),
        };
        let _ = reply.send(out);
    }
    core.drained();
}

/// A running daemon: the core thread plus the listening control
/// endpoint. `Farmd` and `Fedd` are this type over their cores.
pub struct Daemon<C> {
    server: NetServer,
    /// The core thread and its companion, if any; empty once torn down.
    threads: Vec<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shutdown_drain: Duration,
    telemetry: Telemetry,
    _core: PhantomData<fn() -> C>,
}

impl<C: Core> Daemon<C> {
    /// Boots the core on its thread, binds the control endpoint.
    ///
    /// # Errors
    ///
    /// Bind failures, or the core thread dying during construction.
    pub fn start(mut config: C::Config) -> io::Result<Daemon<C>> {
        let name = C::NAME;
        let server_config = C::server(&mut config).clone();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Request>();
        let (ready_tx, ready_rx) = mpsc::channel::<Telemetry>();
        let core = {
            let config = config.clone();
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name(format!("{name}-core"))
                .spawn(move || {
                    let mut core = C::boot(config);
                    if ready_tx.send(core.telemetry().clone()).is_ok() {
                        run(&mut core, &rx, &stop);
                    }
                })?
        };
        let telemetry = ready_rx
            .recv()
            .map_err(|_| io::Error::other(format!("{name} core died during startup")))?;
        let handler = {
            // mpsc senders are Send but not Sync; handlers clone one out
            // of the mutex per request.
            let tx = Mutex::new(tx);
            let stop = Arc::clone(&stop);
            let wait = server_config.request_timeout;
            let error = move |what: &str| {
                Some(Frame::Error {
                    message: format!("{name} {what}"),
                })
            };
            Arc::new(move |env: &Envelope| -> Option<Frame> {
                let Frame::Control { op } = &env.frame else {
                    return None;
                };
                if stop.load(Ordering::Relaxed) {
                    return error("is shutting down");
                }
                let (reply_tx, reply_rx) = mpsc::channel();
                let sender = tx.lock().expect("core sender lock").clone();
                let request = Request {
                    op: op.clone(),
                    reply: reply_tx,
                };
                if sender.send(request).is_err() {
                    return error("core is gone");
                }
                match reply_rx.recv_timeout(wait) {
                    Ok(reply) => Some(Frame::ControlReply { reply }),
                    Err(_) => error("core did not answer in time"),
                }
            })
        };
        let server = NetServer::bind(server_config.listen, &telemetry, handler)?;
        let mut threads = vec![core];
        threads.extend(C::companion(
            &config,
            server.local_addr(),
            &stop,
            &telemetry,
        )?);
        Ok(Daemon {
            server,
            threads,
            stop,
            shutdown_drain: server_config.shutdown_drain,
            telemetry,
            _core: PhantomData,
        })
    }
}

impl<C> Daemon<C> {
    /// The bound control address (the chosen port when listening on :0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The core's telemetry handle (shared with the transport).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// True once a shutdown op was served (or [`Daemon::stop`] ran).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Blocks until a `Shutdown` op arrives, then drains and tears the
    /// endpoint down.
    pub fn wait(mut self) {
        while !self.stopping() {
            thread::sleep(Duration::from_millis(20));
        }
        self.teardown();
    }

    /// Initiates shutdown locally (equivalent to serving a `Shutdown`
    /// op) and tears down.
    pub fn stop(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Let in-flight replies reach their sockets before severing.
        thread::sleep(self.shutdown_drain);
        self.server.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<C> Drop for Daemon<C> {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.teardown();
        }
    }
}

/// Exit code of a graceful, signal-initiated shutdown.
const EXIT_SIGNALED: u8 = 3;

/// Set from the signal handler; [`main`] polls it. An atomic store is
/// async-signal-safe, which is all a handler may do.
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
pub fn main<C: Core>(
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
    // Wait for either a served `Shutdown` op or a supervisor signal;
    // both paths drain in-flight ops inside the core's teardown.
    while !daemon.stopping() && !SIGNALED.load(Ordering::Relaxed) {
        thread::sleep(Duration::from_millis(20));
    }
    let signaled = SIGNALED.load(Ordering::Relaxed) && !daemon.stopping();
    if signaled {
        eprintln!("{name}: signal received, shutting down gracefully");
    }
    daemon.stop();
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
