//! The accepting side as a value: a [`Reactor`] owns the listener, the
//! [`Poller`] and every session, and does nothing until its owner
//! calls [`Reactor::turn`]. It spawns no thread and shares no state —
//! whoever turns it serves the frames, on that thread, right there.
//!
//! ```text
//!             ┌──────────────────────────── one turn ─────┐
//!  listener ──┤ accept → register                         │
//!  sockets  ──┤ readable → ByteRing → FrameDecoder        │
//!             │   → handler(env), inline, arrival order   │
//!             │   → encode reply into the output ring     │
//!             │ writable → flush coalesced output ring    │
//!             └───────────────────────────────────────────┘
//! ```
//!
//! Invariants a turn maintains:
//!
//! * **Per-connection FIFO.** A connection's frames are decoded and
//!   handed to the handler in the order the client wrote them, and a
//!   request's reply is queued only after every frame written ahead of
//!   it has been handled (the `Hello` of a dial before the first
//!   request, report batches sent one-way before the RPC that asks
//!   about them). `tests/fifo.rs` holds it.
//! * **Write coalescing.** Replies accumulate in one contiguous
//!   per-connection output ring; a flush is a single `write` of
//!   everything pending, not a syscall per frame.
//! * **Backpressure.** A connection whose output ring exceeds
//!   `OUTBUF_HIGH_WATER` (4 MiB) stops being read until the peer drains it;
//!   read interest resumes once the ring shrinks below the mark.
//! * **An error costs the session only when framing is lost.** A fully framed but
//!   undecodable body answers requests with `Frame::Error` and keeps
//!   the session; a broken length prefix sends a one-way `Error` and
//!   hangs up; `Frame::Shutdown` ends the session immediately.
//!
//! The price of serving inline: while the handler runs, no other socket
//! is read or flushed. The unflushed tail of a large reply and the
//! `Ack` of another connection's `Hello` wait out the frame being
//! handled — bounded by that handler call (`tests/inline.rs`).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

use farm_telemetry::{Gauge, Telemetry};

use crate::buf::{ByteRing, Decoded, FrameDecoder};
use crate::frame::{Envelope, Frame};
use crate::link::Links;
use crate::poll::{Interest, PollEvent, Poller, Token, WakeHandle, Waker};
use crate::sock::NetCounters;

/// Stop reading a connection whose unflushed output exceeds this.
const OUTBUF_HIGH_WATER: usize = 4 << 20;

const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);
/// The owner's outbound [`Links`], once [`Reactor::watch`]ed.
const TOKEN_LINKS: Token = Token(2);
/// Connection ids start here; `Token(id)` ↔ connection `id`.
const CONN_BASE: u64 = 3;

/// What a turn calls for each inbound frame.
type Handler<'a> = dyn FnMut(&Envelope) -> Option<Frame> + 'a;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: ByteRing,
    interest: Interest,
    /// Flush whatever is pending, then close; reads are over.
    closing: bool,
}

/// A listening endpoint and its sessions, served by whoever calls
/// [`turn`](Reactor::turn). Dropping it severs every session.
pub struct Reactor {
    poller: Poller,
    waker: Waker,
    listener: TcpListener,
    local_addr: SocketAddr,
    counters: NetCounters,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    open_conns: Arc<Gauge>,
    /// Share of the last turn spent after the wait: handling, not idling.
    utilisation: Arc<Gauge>,
    events: Vec<PollEvent>,
    scratch: Vec<u8>,
}

impl Reactor {
    /// Binds `addr` (port 0 picks an ephemeral port — see
    /// [`local_addr`](Self::local_addr)). Nothing is accepted until the
    /// first turn; until then dials wait in the listen backlog.
    pub fn bind(addr: SocketAddr, telemetry: &Telemetry) -> io::Result<Reactor> {
        Reactor::from_listener(TcpListener::bind(addr)?, telemetry)
    }

    /// Serves a listener the caller bound already — for an owner that
    /// must know it has the address before it builds what `telemetry`
    /// belongs to.
    pub fn from_listener(listener: TcpListener, telemetry: &Telemetry) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor {
            poller,
            waker,
            listener,
            local_addr,
            counters: NetCounters::new(telemetry),
            conns: HashMap::new(),
            next_id: CONN_BASE,
            open_conns: telemetry.gauge("net.server_conns"),
            utilisation: telemetry.gauge("net.reactor_utilisation"),
            events: Vec::with_capacity(256),
            scratch: vec![0u8; 64 * 1024],
        })
    }

    /// The bound address — the port actually chosen when binding :0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle another thread can cut a waiting turn short with.
    pub(crate) fn wake_handle(&self) -> io::Result<WakeHandle> {
        self.waker.handle()
    }

    /// Lets readiness of `links`' sessions end a waiting turn (on
    /// pollers that can nest; `poll(2)` cannot). The turn does no I/O
    /// for them: moving them along is their owner's, after the turn.
    ///
    /// # Errors
    ///
    /// The poller refused the registration.
    pub fn watch(&mut self, links: &Links) -> io::Result<()> {
        match links.fd() {
            Some(fd) => self.poller.register(fd, TOKEN_LINKS, Interest::READ),
            None => Ok(()),
        }
    }

    /// True when no connection holds output its socket has yet to take.
    pub fn flushed(&self) -> bool {
        self.conns.values().all(|c| c.out.is_empty())
    }

    /// One pass of the event loop: waits up to `timeout_ms` for
    /// readiness, then accepts, reads, hands every complete frame to
    /// `handler` in arrival order, queues the answers and flushes.
    /// `Some(frame)` answers a request; `None` defers to the default
    /// `Ack` for requests and is ignored for one-way frames. Sets the
    /// `net.reactor_utilisation` gauge: the time after the wait
    /// returned over the whole turn.
    ///
    /// # Errors
    ///
    /// Only the poller's own failure; a session's I/O error ends that
    /// session and nothing else.
    pub fn turn(
        &mut self,
        timeout_ms: i32,
        handler: &mut dyn FnMut(&Envelope) -> Option<Frame>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let waited = self.poller.wait(timeout_ms, &mut events);
        let woke = Instant::now();
        for &ev in &events {
            match ev.token {
                TOKEN_WAKER => self.waker.drain(),
                TOKEN_LISTENER => self.accept_ready(),
                TOKEN_LINKS => {}
                Token(id) => self.conn_ready(id, ev, handler),
            }
        }
        self.events = events;
        let ended = Instant::now();
        let whole = ended.duration_since(started).as_secs_f64();
        if whole > 0.0 {
            self.utilisation
                .set(ended.duration_since(woke).as_secs_f64() / whole);
        }
        waited
    }

    /// Per-turn accept cap. The listener is level-triggered, so a
    /// backlog past the cap simply re-surfaces on the next turn;
    /// bounding the batch keeps a connection storm from starving
    /// established connections' I/O within the turn.
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
                // the loop a turn rather than spinning.
                Err(_) => break,
            }
        }
        // One gauge settle per batch instead of one per accept.
        if accepted > 0 {
            self.open_conns.set(self.conns.len() as f64);
        }
    }

    fn conn_ready(&mut self, id: u64, ev: PollEvent, handler: &mut Handler<'_>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // Read (unless reads are over), then flush what that queued; an
        // error event still gets both, to drain what the kernel holds.
        let reads = ev.readiness.readable && !conn.closing;
        let alive = (!reads || conn.read(&self.counters, &mut self.scratch, handler))
            && conn.flush(&mut self.poller, Token(id))
            && !ev.readiness.error;
        if !alive {
            if let Some(conn) = self.conns.remove(&id) {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
                self.open_conns.set(self.conns.len() as f64);
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // The sockets close with their fields; the gauge outlives them.
        self.open_conns.set(0.0);
    }
}

impl Conn {
    /// Drains the socket into the decoder, then handles every complete
    /// frame and queues its answer. Returns false when the session is
    /// over.
    fn read(
        &mut self,
        counters: &NetCounters,
        scratch: &mut [u8],
        handler: &mut Handler<'_>,
    ) -> bool {
        // Paced reads: oversized inflows yield to the rest of the loop
        // (level-triggering re-arms).
        let peer_gone = (self.decoder).read_from(&mut self.stream, scratch, OUTBUF_HIGH_WATER);
        loop {
            match self.decoder.next() {
                Ok(Some(Decoded::Frame(env, nbytes))) => {
                    counters.bytes.add(nbytes as u64);
                    counters.frames_received.inc();
                    if matches!(env.frame, Frame::Shutdown) {
                        return false;
                    }
                    let answer = handler(&env);
                    if env.corr != 0 && !env.response {
                        let reply = Envelope::response(env.corr, answer.unwrap_or(Frame::Ack));
                        self.queue(&reply, counters);
                    }
                }
                Ok(Some(Decoded::Bad {
                    corr,
                    error,
                    nbytes,
                })) => {
                    counters.bytes.add(nbytes as u64);
                    counters.decode_errors.inc();
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
                        self.queue(&reply, counters);
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Broken framing: resync is impossible, so say why
                    // and hang up once the goodbye flushes.
                    counters.decode_errors.inc();
                    let bye = Envelope::one_way(Frame::Error {
                        message: format!("unrecoverable frame: {e}"),
                    });
                    self.queue(&bye, counters);
                    self.closing = true;
                    break;
                }
            }
        }
        !peer_gone
    }

    /// Encodes `env` into the output ring, accounting the send. The
    /// bytes leave on the next flush.
    fn queue(&mut self, env: &Envelope, counters: &NetCounters) {
        counters.bytes.add(self.out.push_envelope(env) as u64);
        counters.frames_sent.inc();
    }

    /// Writes the coalesced output ring: one syscall moves everything
    /// pending (partial writes keep write interest armed). Returns
    /// false when the session is over.
    fn flush(&mut self, poller: &mut Poller, token: Token) -> bool {
        if !self.out.write_to(&mut self.stream) {
            return false;
        }
        if self.closing && self.out.is_empty() {
            return false;
        }
        let want = Interest {
            readable: !self.closing && self.out.len() < OUTBUF_HIGH_WATER,
            writable: !self.out.is_empty(),
        };
        if want != self.interest {
            if poller.modify(self.stream.as_raw_fd(), token, want).is_err() {
                return false;
            }
            self.interest = want;
        }
        true
    }
}
