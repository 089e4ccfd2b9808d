//! The multiplexed client connection.
//!
//! A [`Connection`] owns a supervisor thread that dials the peer
//! (retrying with exponential backoff), then runs a writer loop while
//! a companion reader thread feeds inbound bytes to the same
//! [`FrameDecoder`] the server's reactor uses. Outgoing frames
//! pass through a bounded send queue — the backpressure boundary — and
//! an [`Interceptor`] that may drop, duplicate or delay them.
//! Request/response multiplexing uses correlation ids: any number of
//! requests may be in flight; responses resolve them in any order.
//!
//! Delivery semantics: one-way frames are at-most-once (a session drop
//! loses whatever was in flight); requests are at-least-once *if the
//! caller retries on timeout* — the transport itself never re-sends.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use farm_soil::SharedRingBuffer;
use farm_telemetry::Telemetry;

use crate::buf::{Decoded, FrameDecoder};
use crate::frame::{encode_envelope, Envelope, Frame, Report};
use crate::interceptor::{Interceptor, Passthrough, Verdict};
use crate::sock::NetCounters;
use crate::wire::PROTOCOL_VERSION;

/// Transport knobs. The defaults suit loopback control traffic.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Name announced in the `Hello` preamble.
    pub node: String,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout — the granularity at which reader/writer
    /// threads notice shutdown; not a frame deadline.
    pub read_timeout: Duration,
    /// Default deadline for [`Connection::request`].
    pub request_timeout: Duration,
    /// Bounded send-queue capacity, frames. Full queue = backpressure:
    /// `send` blocks, `try_send` dead-letters.
    pub send_queue: usize,
    /// Queued poll reports per [`Frame::PollReport`] flush.
    pub batch_max: usize,
    /// Max age of a queued poll report before the next queue operation
    /// flushes the batch.
    pub batch_linger: Duration,
    /// First reconnect backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failed dials before the connection gives up.
    pub max_reconnects: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            node: "farm-node".into(),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(20),
            request_timeout: Duration::from_secs(2),
            send_queue: 1024,
            batch_max: 32,
            batch_linger: Duration::from_millis(2),
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(1),
            max_reconnects: 10,
        }
    }
}

/// Transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The connection was closed (locally) or gave up reconnecting.
    Closed,
    /// `try_send` found the bounded send queue full.
    QueueFull,
    /// A request got no response within its deadline.
    Timeout,
    /// The session died while a request was in flight.
    Disconnected,
    /// The peer answered with an `Error` frame.
    Rejected(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "net: connection closed"),
            NetError::QueueFull => write!(f, "net: send queue full"),
            NetError::Timeout => write!(f, "net: request timed out"),
            NetError::Disconnected => write!(f, "net: peer disconnected mid-request"),
            NetError::Rejected(m) => write!(f, "net: peer rejected request: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

struct BatchState {
    reports: Vec<Report>,
    oldest: Option<Instant>,
}

struct Shared {
    addr: SocketAddr,
    cfg: NetConfig,
    outbox: SharedRingBuffer<Envelope>,
    pending: Mutex<HashMap<u64, mpsc::SyncSender<Frame>>>,
    next_corr: AtomicU64,
    closed: AtomicBool,
    connected: AtomicBool,
    counters: NetCounters,
    batch: Mutex<BatchState>,
}

impl Shared {
    fn fail_pending(&self) {
        // Dropping the senders makes every waiting `request` observe a
        // disconnect instead of running out its full timeout.
        self.pending.lock().expect("pending lock").clear();
    }
}

/// A client connection to one peer. Cheap to move; dropping it flushes
/// the send queue (best effort) and tears the threads down.
pub struct Connection {
    shared: Arc<Shared>,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl Connection {
    /// Opens a connection with no interceptor.
    pub fn connect(addr: SocketAddr, cfg: NetConfig, telemetry: &Telemetry) -> Connection {
        Connection::connect_with(addr, cfg, telemetry, Box::new(Passthrough))
    }

    /// Opens a connection whose outgoing frames pass through
    /// `interceptor`. Dialing happens on the supervisor thread, so this
    /// returns immediately even when the peer is down — frames queue
    /// (up to the bound) until the dial succeeds.
    pub fn connect_with(
        addr: SocketAddr,
        cfg: NetConfig,
        telemetry: &Telemetry,
        interceptor: Box<dyn Interceptor>,
    ) -> Connection {
        let shared = Arc::new(Shared {
            addr,
            outbox: SharedRingBuffer::new(cfg.send_queue),
            pending: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            counters: NetCounters::new(telemetry),
            batch: Mutex::new(BatchState {
                reports: Vec::new(),
                oldest: None,
            }),
            cfg,
        });
        let sup = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("farm-net-conn".into())
                .spawn(move || supervise(shared, interceptor))
                .expect("spawn connection supervisor")
        };
        Connection {
            shared,
            supervisor: Some(sup),
        }
    }

    /// True while a live TCP session exists.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Relaxed)
    }

    /// Blocks until a session is up or `timeout` elapses.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.is_connected() {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        self.is_connected()
    }

    /// Frames currently waiting in the send queue.
    pub fn queued(&self) -> usize {
        self.shared.outbox.len()
    }

    /// Queues a one-way frame, blocking while the send queue is full
    /// (the backpressure path).
    pub fn send(&self, frame: Frame) -> Result<(), NetError> {
        if self.shared.closed.load(Ordering::Relaxed) {
            return Err(NetError::Closed);
        }
        self.shared
            .outbox
            .push(Envelope::one_way(frame))
            .map_err(|_| NetError::Closed)
    }

    /// Queues a one-way frame without blocking; a full queue
    /// dead-letters the frame (counted in `net.dead_letters`).
    pub fn try_send(&self, frame: Frame) -> Result<(), NetError> {
        if self.shared.closed.load(Ordering::Relaxed) {
            return Err(NetError::Closed);
        }
        match self.shared.outbox.try_push(Envelope::one_way(frame)) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.shared.counters.dead_letters.inc();
                if self.shared.outbox.is_closed() {
                    Err(NetError::Closed)
                } else {
                    Err(NetError::QueueFull)
                }
            }
        }
    }

    /// Sends a request and blocks for its response (default deadline).
    pub fn request(&self, frame: Frame) -> Result<Frame, NetError> {
        self.request_timeout(frame, self.shared.cfg.request_timeout)
    }

    /// Sends a request and blocks for the response with `corr`elated
    /// id until `timeout`. Concurrent requests multiplex freely.
    pub fn request_timeout(&self, frame: Frame, timeout: Duration) -> Result<Frame, NetError> {
        if self.shared.closed.load(Ordering::Relaxed) {
            return Err(NetError::Closed);
        }
        let corr = self.shared.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel(1);
        self.shared
            .pending
            .lock()
            .expect("pending lock")
            .insert(corr, tx);
        let start = Instant::now();
        if let Err(e) = self
            .shared
            .outbox
            .push(Envelope::request(corr, frame))
            .map_err(|_| NetError::Closed)
        {
            self.shared
                .pending
                .lock()
                .expect("pending lock")
                .remove(&corr);
            return Err(e);
        }
        match rx.recv_timeout(timeout) {
            Ok(Frame::Error { message }) => Err(NetError::Rejected(message)),
            Ok(frame) => {
                self.shared.counters.rpcs.inc();
                self.shared
                    .counters
                    .rpc_latency_us
                    .record(start.elapsed().as_micros() as u64);
                Ok(frame)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.shared
                    .pending
                    .lock()
                    .expect("pending lock")
                    .remove(&corr);
                self.shared.counters.rpc_timeouts.inc();
                Err(NetError::Timeout)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Adds a poll report to the aggregation buffer, flushing a
    /// [`Frame::PollReport`] batch when it reaches `batch_max` entries
    /// or the oldest entry exceeds `batch_linger`.
    pub fn queue_report(&self, report: Report) -> Result<(), NetError> {
        let due = {
            let mut b = self.shared.batch.lock().expect("batch lock");
            b.reports.push(report);
            b.oldest.get_or_insert_with(Instant::now);
            b.reports.len() >= self.shared.cfg.batch_max
                || b.oldest
                    .map(|t| t.elapsed() >= self.shared.cfg.batch_linger)
                    .unwrap_or(false)
        };
        if due {
            self.flush_reports()?;
        }
        Ok(())
    }

    /// Flushes any buffered poll reports as one batched frame.
    pub fn flush_reports(&self) -> Result<(), NetError> {
        let reports = {
            let mut b = self.shared.batch.lock().expect("batch lock");
            b.oldest = None;
            std::mem::take(&mut b.reports)
        };
        if reports.is_empty() {
            return Ok(());
        }
        self.send(Frame::PollReport { reports })
    }

    /// Flushes the send queue (best effort) and stops the threads. The
    /// supervisor drains queued frames to the wire before closing the
    /// socket when a session is up.
    pub fn close(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        self.shared.outbox.close();
        self.shared.fail_pending();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

impl fmt::Debug for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connection")
            .field("addr", &self.shared.addr)
            .field("connected", &self.is_connected())
            .field("queued", &self.queued())
            .finish()
    }
}

fn backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(10);
    base.checked_mul(factor).unwrap_or(cap).min(cap)
}

/// Sleeps in small slices so a close() interrupts the backoff quickly.
fn sleep_interruptible(total: Duration, closed: &AtomicBool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !closed.load(Ordering::Relaxed) {
        thread::sleep(Duration::from_millis(2).min(total));
    }
}

fn supervise(shared: Arc<Shared>, mut interceptor: Box<dyn Interceptor>) {
    let mut consecutive_failures = 0u32;
    let mut ever_connected = false;
    loop {
        if shared.closed.load(Ordering::Relaxed) && shared.outbox.is_empty() {
            break;
        }
        match TcpStream::connect_timeout(&shared.addr, shared.cfg.connect_timeout) {
            Ok(stream) => {
                consecutive_failures = 0;
                if ever_connected {
                    shared.counters.reconnects.inc();
                } else {
                    shared.counters.connects.inc();
                }
                ever_connected = true;
                run_session(&shared, stream, interceptor.as_mut());
                shared.fail_pending();
                if shared.closed.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(_) => {
                shared.counters.connect_failures.inc();
                consecutive_failures += 1;
                // A close() while the peer is unreachable gives up at
                // once instead of riding out the backoff schedule.
                if consecutive_failures > shared.cfg.max_reconnects
                    || shared.closed.load(Ordering::Relaxed)
                {
                    break;
                }
                sleep_interruptible(
                    backoff(
                        shared.cfg.backoff_base,
                        shared.cfg.backoff_max,
                        consecutive_failures - 1,
                    ),
                    &shared.closed,
                );
            }
        }
    }
    // Whatever is still queued can never be delivered.
    shared.closed.store(true, Ordering::Relaxed);
    shared.outbox.close();
    while shared.outbox.pop_timeout(Duration::ZERO).is_some() {
        shared.counters.dead_letters.inc();
    }
    shared.fail_pending();
    shared.connected.store(false, Ordering::Relaxed);
}

/// One TCP session: writer loop on this thread, reader on a companion.
/// Returns when the session dies or the connection closes.
fn run_session(shared: &Arc<Shared>, stream: TcpStream, interceptor: &mut dyn Interceptor) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let dead = Arc::new(AtomicBool::new(false));
    let reader = match stream.try_clone() {
        Ok(rs) => {
            let shared = Arc::clone(shared);
            let dead = Arc::clone(&dead);
            thread::Builder::new()
                .name("farm-net-read".into())
                .spawn(move || reader_loop(shared, rs, dead))
                .ok()
        }
        Err(_) => None,
    };
    if reader.is_some() {
        shared.connected.store(true, Ordering::Relaxed);
        writer_loop(shared, &stream, interceptor, &dead);
        shared.connected.store(false, Ordering::Relaxed);
    }
    dead.store(true, Ordering::Relaxed);
    let _ = stream.shutdown(Shutdown::Both);
    if let Some(h) = reader {
        let _ = h.join();
    }
}

fn write_frame(
    shared: &Shared,
    stream: &TcpStream,
    env: &Envelope,
    interceptor: &mut dyn Interceptor,
) -> bool {
    match interceptor.on_send(env) {
        Verdict::Drop => {
            shared.counters.dropped_frames.inc();
            true
        }
        Verdict::Deliver { copies, delay } => {
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            let mut buf = Vec::with_capacity(128);
            encode_envelope(env, &mut buf);
            let mut w = stream;
            for _ in 0..copies {
                if w.write_all(&buf).is_err() {
                    return false;
                }
                shared.counters.bytes.add(buf.len() as u64);
                shared.counters.frames_sent.inc();
            }
            true
        }
    }
}

fn writer_loop(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    interceptor: &mut dyn Interceptor,
    dead: &AtomicBool,
) {
    // Session preamble (not subject to interception).
    let hello = Envelope::one_way(Frame::Hello {
        node: shared.cfg.node.clone(),
        protocol: PROTOCOL_VERSION as u32,
    });
    if !write_frame(shared, stream, &hello, &mut Passthrough) {
        return;
    }
    loop {
        if dead.load(Ordering::Relaxed) {
            return;
        }
        match shared.outbox.pop_timeout(Duration::from_millis(2)) {
            Some(env) => {
                if !write_frame(shared, stream, &env, interceptor) {
                    return;
                }
            }
            None => {
                if shared.outbox.is_closed() && shared.outbox.is_empty() {
                    // Graceful goodbye so the peer can drop the
                    // connection without logging an error.
                    let bye = Envelope::one_way(Frame::Shutdown);
                    write_frame(shared, stream, &bye, &mut Passthrough);
                    return;
                }
            }
        }
    }
}

/// Reads the socket into a [`FrameDecoder`] and dispatches every
/// complete frame. Read timeouts are the ticks at which the `dead` flag
/// is re-checked; whatever part of a frame has arrived stays buffered
/// in the decoder across them.
fn reader_loop(shared: Arc<Shared>, mut stream: TcpStream, dead: Arc<AtomicBool>) {
    let mut decoder = FrameDecoder::new();
    let mut scratch = vec![0u8; 16 * 1024];
    while !dead.load(Ordering::Relaxed) {
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => decoder.extend(&scratch[..n]),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        }
        loop {
            match decoder.next() {
                Ok(Some(Decoded::Frame(env, nbytes))) => {
                    shared.counters.bytes.add(nbytes as u64);
                    shared.counters.frames_received.inc();
                    if env.response {
                        let waiter = shared
                            .pending
                            .lock()
                            .expect("pending lock")
                            .remove(&env.corr);
                        if let Some(tx) = waiter {
                            let _ = tx.try_send(env.frame);
                        }
                    } else if matches!(env.frame, Frame::Shutdown) {
                        dead.store(true, Ordering::Relaxed);
                        return;
                    }
                    // Any other one-way frame from the peer is ignored:
                    // a client has no reader for unsolicited traffic.
                }
                // A frame with an undecodable body: count it and keep
                // the connection — the stream is still aligned. (A
                // client has nothing to answer, so the recovered
                // correlation id goes unused.)
                Ok(Some(Decoded::Bad { nbytes, .. })) => {
                    shared.counters.bytes.add(nbytes as u64);
                    shared.counters.decode_errors.inc();
                }
                Ok(None) => break,
                // Broken framing: resync is impossible, drop the session.
                Err(_) => {
                    shared.counters.decode_errors.inc();
                    dead.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
    dead.store(true, Ordering::Relaxed);
}

/// True for the error kinds a read timeout produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::put_varint;
    use std::net::TcpListener;

    /// A hand-driven peer: accepts one session, waits for the first
    /// request, lets `answer` write whatever bytes it likes for that
    /// correlation id, then holds the session until the client leaves.
    fn raw_peer(
        answer: impl FnOnce(&mut TcpStream, u64) + Send + 'static,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let peer = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = stream.set_nodelay(true);
            let mut decoder = FrameDecoder::new();
            let mut chunk = [0u8; 512];
            let corr = loop {
                match decoder.next().expect("clean stream") {
                    Some(Decoded::Frame(env, _)) if env.corr != 0 => break env.corr,
                    Some(_) => continue,
                    None => {
                        let n = stream.read(&mut chunk).expect("read");
                        assert!(n > 0, "client left before asking");
                        decoder.extend(&chunk[..n]);
                    }
                }
            };
            answer(&mut stream, corr);
            while matches!(stream.read(&mut chunk), Ok(n) if n > 0) {}
        });
        (addr, peer)
    }

    /// Any frame will do as a reply; `Hello` carries a string to size it.
    fn reply(node: String) -> Frame {
        Frame::Hello { node, protocol: 1 }
    }

    fn reply_bytes(corr: u64, node: String) -> Vec<u8> {
        let mut wire = Vec::new();
        encode_envelope(&Envelope::response(corr, reply(node)), &mut wire);
        wire
    }

    #[test]
    fn reader_reassembles_a_reply_dribbled_byte_by_byte() {
        // One write per byte, pausing past the read timeout inside the
        // length prefix and inside the body: whatever the reader holds
        // when a read times out must still be there for the next one.
        let cfg = NetConfig {
            read_timeout: Duration::from_millis(1),
            ..NetConfig::default()
        };
        let pause = cfg.read_timeout * 5;
        let long = "x".repeat(300);
        let want = reply(long.clone());
        let (addr, peer) = raw_peer(move |stream, corr| {
            let wire = reply_bytes(corr, long);
            assert!(wire[0] & 0x80 != 0, "length prefix spans bytes");
            for (i, byte) in wire.iter().enumerate() {
                stream.write_all(&[*byte]).expect("dribble");
                if i == 0 || i == wire.len() / 2 {
                    thread::sleep(pause);
                }
            }
        });
        let telemetry = Telemetry::new();
        let conn = Connection::connect(addr, cfg, &telemetry);
        let got = conn.request(Frame::Ack).expect("dribbled reply arrives");
        assert_eq!(got, want);
        assert_eq!(telemetry.snapshot().counter("net.decode_errors"), 0);
        drop(conn);
        peer.join().expect("peer thread");
    }

    #[test]
    fn reader_steps_over_an_undecodable_body() {
        // A well-framed body no decoder knows (frame tag 200), then the
        // real reply: the bad frame is counted, the stream stays
        // aligned, the request still completes.
        let (addr, peer) = raw_peer(|stream, corr| {
            let mut bad = vec![PROTOCOL_VERSION, 200, 0];
            put_varint(&mut bad, corr);
            let mut wire = Vec::new();
            put_varint(&mut wire, bad.len() as u64);
            wire.extend_from_slice(&bad);
            wire.extend_from_slice(&reply_bytes(corr, "ok".into()));
            stream.write_all(&wire).expect("write");
        });
        let telemetry = Telemetry::new();
        let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
        let got = conn.request(Frame::Ack);
        assert_eq!(
            got,
            Ok(reply("ok".into())),
            "the reply behind the bad frame"
        );
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.decode_errors"), 1);
        assert_eq!(snap.counter("net.frames_received"), 1);
        drop(conn);
        peer.join().expect("peer thread");
    }
}
