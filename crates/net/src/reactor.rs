//! The readiness-polling server core: one reactor thread multiplexing
//! every session over a [`Poller`], plus a small sticky worker pool
//! that runs the (possibly blocking) [`FrameHandler`] off the event
//! loop.
//!
//! ```text
//!             ┌────────────────────────── reactor thread ─┐
//!  listener ──┤ accept → register                         │
//!  sockets  ──┤ readable → ByteRing → FrameDecoder ──┐    │
//!             │ writable → flush coalesced outbuf    │    │
//!             │ waker    → drain completed replies   │    │
//!             └─────────────────────────────────────┬┴────┘
//!                 jobs (conn_id % N, per-conn FIFO)  │
//!             ┌── worker pool ─────────────────────▼─────┐
//!             │ handler.handle(env) → encode reply →     │
//!             │ completions queue → wake reactor         │
//!             └──────────────────────────────────────────┘
//! ```
//!
//! Invariants the loop maintains:
//!
//! * **Per-connection FIFO.** Frames from one connection always land on
//!   the same worker (`conn_id % workers`), so handler invocation order
//!   matches arrival order and a request's reply follows the handling
//!   of every frame the client wrote ahead of it (the `Hello` of a
//!   dial before the first request, report batches sent one-way before
//!   the RPC that asks about them). `tests/fifo.rs` holds it.
//! * **Write coalescing.** Replies accumulate in one contiguous
//!   per-connection output ring; a flush is a single `write` of
//!   everything pending, not a syscall per frame.
//! * **Backpressure.** A connection whose output ring exceeds
//!   [`OUTBUF_HIGH_WATER`] stops being read until the peer drains it;
//!   read interest resumes once the ring shrinks below the mark.
//! * **An error costs the session only when framing is lost.** A fully framed but
//!   undecodable body answers requests with `Frame::Error` and keeps
//!   the session; a broken length prefix sends a one-way `Error` and
//!   hangs up; `Frame::Shutdown` ends the session immediately.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use farm_telemetry::{Gauge, Telemetry};

use crate::buf::{ByteRing, Decoded, FrameDecoder};
use crate::frame::{encode_envelope, Envelope, Frame};
use crate::poll::{Interest, PollEvent, Poller, Token, WakeHandle, Waker};
use crate::server::FrameHandler;
use crate::sock::NetCounters;

/// Stop reading a connection whose unflushed output exceeds this.
const OUTBUF_HIGH_WATER: usize = 4 << 20;
/// Reactor tick, ms — the stop flag is rechecked at least this often.
const POLL_TICK_MS: i32 = 50;

const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);
/// Connection ids start here; `Token(id)` ↔ connection `id`.
const CONN_BASE: u64 = 2;

/// One frame bound for the worker pool.
struct Job {
    conn: u64,
    env: Envelope,
}

struct Shared {
    stop: AtomicBool,
    counters: NetCounters,
    handler: Arc<dyn FrameHandler>,
    /// Encoded replies finished by workers, waiting for the reactor to
    /// fold them into per-connection output rings.
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
}

/// Owning handle the public [`crate::server::NetServer`] wraps.
pub(crate) struct ReactorHandle {
    shared: Arc<Shared>,
    wake: WakeHandle,
    local_addr: SocketAddr,
    reactor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ReactorHandle {
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub(crate) fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        self.wake.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Binds the listener and spawns the reactor thread plus worker pool.
pub(crate) fn spawn(
    addr: SocketAddr,
    telemetry: &Telemetry,
    handler: Arc<dyn FrameHandler>,
) -> io::Result<ReactorHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let mut poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;
    let wake = waker.handle()?;

    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        counters: NetCounters::new(telemetry),
        handler,
        completions: Mutex::new(Vec::new()),
    });

    let n_workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let mut senders = Vec::with_capacity(n_workers);
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let (tx, rx) = mpsc::channel::<Job>();
        senders.push(tx);
        let shared = Arc::clone(&shared);
        let wake = wake.clone();
        workers.push(
            thread::Builder::new()
                .name(format!("farm-net-worker-{i}"))
                .spawn(move || worker_loop(rx, shared, wake))
                .expect("spawn net worker"),
        );
    }

    let reactor = {
        let shared = Arc::clone(&shared);
        let open_conns = telemetry.gauge("net.server_conns");
        thread::Builder::new()
            .name("farm-net-reactor".into())
            .spawn(move || {
                Reactor {
                    poller,
                    waker,
                    listener,
                    shared,
                    senders,
                    conns: HashMap::new(),
                    next_id: CONN_BASE,
                    open_conns,
                }
                .run()
            })
            .expect("spawn net reactor")
    };

    Ok(ReactorHandle {
        shared,
        wake,
        local_addr,
        reactor: Some(reactor),
        workers,
    })
}

fn worker_loop(rx: mpsc::Receiver<Job>, shared: Arc<Shared>, wake: WakeHandle) {
    // The channel disconnects when the reactor drops its senders on
    // shutdown; remaining queued jobs still run so no accepted frame is
    // silently dropped.
    while let Ok(job) = rx.recv() {
        let answer = shared.handler.handle(&job.env);
        if job.env.corr != 0 && !job.env.response {
            let reply = Envelope::response(job.env.corr, answer.unwrap_or(Frame::Ack));
            let mut buf = Vec::with_capacity(64);
            encode_envelope(&reply, &mut buf);
            shared
                .completions
                .lock()
                .expect("completions lock")
                .push((job.conn, buf));
            wake.wake();
        }
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: ByteRing,
    interest: Interest,
    /// Flush whatever is pending, then close; reads are over.
    closing: bool,
}

struct Reactor {
    poller: Poller,
    waker: Waker,
    listener: TcpListener,
    shared: Arc<Shared>,
    senders: Vec<mpsc::Sender<Job>>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    open_conns: Arc<Gauge>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            events.clear();
            if self.poller.wait(POLL_TICK_MS, &mut events).is_err() {
                break;
            }
            if self.shared.stop.load(Ordering::Relaxed) {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    Token(id) => self.conn_ready(id, ev, &mut scratch),
                }
            }
            self.drain_completions();
        }
        // Teardown: sever every session so blocked client RPCs fail
        // fast, then drop the job senders so workers drain and exit.
        for (_, conn) in self.conns.drain() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        self.open_conns.set(0.0);
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.senders.clear();
    }

    /// Per-round accept cap. The listener is level-triggered, so a
    /// backlog past the cap simply re-surfaces on the next poll round;
    /// bounding the batch keeps a connection storm from starving
    /// established connections' I/O within the round.
    const ACCEPT_BATCH: usize = 64;

    fn accept_ready(&mut self) {
        let mut accepted = 0usize;
        while accepted < Self::ACCEPT_BATCH {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    accepted += 1;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), Token(id), Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            out: ByteRing::new(),
                            interest: Interest::READ,
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. FD exhaustion): give
                // the loop a tick rather than spinning.
                Err(_) => break,
            }
        }
        // One gauge settle per batch instead of one per accept.
        if accepted > 0 {
            self.open_conns.set(self.conns.len() as f64);
        }
    }

    fn conn_ready(&mut self, id: u64, ev: PollEvent, scratch: &mut [u8]) {
        if !self.conns.contains_key(&id) {
            return;
        }
        if ev.readiness.readable && !self.conn_is_closing(id) && !self.read_conn(id, scratch) {
            self.close_conn(id);
            return;
        }
        if (ev.readiness.writable || self.conn_wants_flush(id)) && !self.flush_conn(id) {
            self.close_conn(id);
            return;
        }
        if ev.readiness.error {
            self.close_conn(id);
        }
    }

    fn conn_is_closing(&self, id: u64) -> bool {
        self.conns.get(&id).map(|c| c.closing).unwrap_or(true)
    }

    fn conn_wants_flush(&self, id: u64) -> bool {
        self.conns
            .get(&id)
            .map(|c| !c.out.is_empty() || c.closing)
            .unwrap_or(false)
    }

    /// Drains the socket into the decoder and dispatches every complete
    /// frame. Returns false when the session is over.
    fn read_conn(&mut self, id: u64, scratch: &mut [u8]) -> bool {
        let mut peer_gone = false;
        {
            let conn = self.conns.get_mut(&id).expect("conn exists");
            loop {
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        peer_gone = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.extend(&scratch[..n]);
                        // Paced reads: oversized inflows yield to the
                        // rest of the loop (level-triggering re-arms).
                        if conn.decoder.buffered() > OUTBUF_HIGH_WATER {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        peer_gone = true;
                        break;
                    }
                }
            }
        }
        loop {
            let conn = self.conns.get_mut(&id).expect("conn exists");
            match conn.decoder.next() {
                Ok(Some(Decoded::Frame(env, nbytes))) => {
                    self.shared.counters.bytes.add(nbytes as u64);
                    self.shared.counters.frames_received.inc();
                    if matches!(env.frame, Frame::Shutdown) {
                        return false;
                    }
                    let worker = (id % self.senders.len() as u64) as usize;
                    let _ = self.senders[worker].send(Job { conn: id, env });
                }
                Ok(Some(Decoded::Bad {
                    corr,
                    error,
                    nbytes,
                })) => {
                    self.shared.counters.bytes.add(nbytes as u64);
                    self.shared.counters.decode_errors.inc();
                    // The session survives an undecodable body; a
                    // recovered request corr gets a structured Error so
                    // the client sees `Rejected` instead of a timeout.
                    if let Some(corr) = corr {
                        let reply = Envelope::response(
                            corr,
                            Frame::Error {
                                message: format!("undecodable frame: {error}"),
                            },
                        );
                        self.queue_reply(id, &reply);
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Broken framing: resync is impossible, so say why
                    // and hang up once the goodbye flushes.
                    self.shared.counters.decode_errors.inc();
                    let bye = Envelope::one_way(Frame::Error {
                        message: format!("unrecoverable frame: {e}"),
                    });
                    self.queue_reply(id, &bye);
                    let conn = self.conns.get_mut(&id).expect("conn exists");
                    conn.closing = true;
                    break;
                }
            }
        }
        !peer_gone
    }

    /// Encodes `env` into the connection's output ring, accounting the
    /// send. The bytes leave on the next flush.
    fn queue_reply(&mut self, id: u64, env: &Envelope) {
        let mut buf = Vec::with_capacity(64);
        encode_envelope(env, &mut buf);
        let conn = self.conns.get_mut(&id).expect("conn exists");
        conn.out.extend(&buf);
        self.shared.counters.bytes.add(buf.len() as u64);
        self.shared.counters.frames_sent.inc();
    }

    /// Writes the coalesced output ring: one syscall moves everything
    /// pending (partial writes keep write interest armed). Returns
    /// false when the session is over.
    fn flush_conn(&mut self, id: u64) -> bool {
        let conn = match self.conns.get_mut(&id) {
            Some(c) => c,
            None => return true,
        };
        while !conn.out.is_empty() {
            match conn.stream.write(conn.out.as_slice()) {
                Ok(0) => return false,
                Ok(n) => conn.out.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.closing && conn.out.is_empty() {
            return false;
        }
        let want = Interest {
            readable: !conn.closing && conn.out.len() < OUTBUF_HIGH_WATER,
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), Token(id), want)
                .is_err()
            {
                return false;
            }
            conn.interest = want;
        }
        true
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.open_conns.set(self.conns.len() as f64);
        }
    }

    /// Folds worker-finished replies into their connections' output
    /// rings and flushes. Replies for connections that died in the
    /// meantime are dropped, matching the blocking server (a reply to a
    /// vanished peer went nowhere there too).
    fn drain_completions(&mut self) {
        let done: Vec<(u64, Vec<u8>)> = {
            let mut lock = self.shared.completions.lock().expect("completions lock");
            std::mem::take(&mut *lock)
        };
        let mut touched: Vec<u64> = Vec::new();
        for (id, buf) in done {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.out.extend(&buf);
                self.shared.counters.bytes.add(buf.len() as u64);
                self.shared.counters.frames_sent.inc();
                if !touched.contains(&id) {
                    touched.push(id);
                }
            }
        }
        for id in touched {
            if !self.flush_conn(id) {
                self.close_conn(id);
            }
        }
    }
}
