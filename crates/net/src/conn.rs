//! The blocking client: a [`Connection`] is a [`Links`] of one outbound
//! session (the same session a daemon core drives) behind one mutex,
//! plus a wait — the calling thread blocks in [`Peers::poll`] until its
//! answer is in. There is no background thread and no queue. A call
//! dials if no session is held (one attempt), reads without blocking
//! whatever the peer sent since the last call — so a goodbye or hang-up
//! that arrived in the meantime is answered with a redial *before* any
//! byte of the new frame is written — then writes the frame. A request
//! goes on to wait against its deadline until the response carrying its
//! correlation id arrives. Calls from several threads take turns.
//!
//! A connection holds no descriptor until its first call that needs a
//! session: only then is its [`Links`] made, and with it the epoll the
//! call waits in. From then on it keeps that epoll, dialled or not,
//! since it is how every later call waits.
//!
//! Delivery semantics: one-way frames are at-most-once (the kernel's
//! socket buffer is the only queue; a frame that finds no session and
//! cannot dial one is a counted dead letter); requests are
//! at-least-once *if the caller retries* — the transport itself never
//! re-sends, and a reply that arrives after its request timed out is
//! discarded, never handed to a later request.

use std::fmt;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use farm_telemetry::{Counter, Telemetry};

use crate::frame::Frame;
use crate::link::{Answer, LinkId, Links, Peers};

/// Pause between dials while [`Connection::wait_connected`] waits.
const REDIAL_PAUSE: Duration = Duration::from_millis(20);

/// Transport settings. The defaults suit loopback control traffic.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Name announced in the `Hello` preamble.
    pub node: String,
    /// Default deadline for [`Connection::request`].
    pub request_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            node: "farm-node".into(),
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// Transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The connection was closed locally.
    Closed,
    /// A request got no response within its deadline.
    Timeout,
    /// No session could be dialed, or the session died with the frame
    /// in flight.
    Disconnected,
    /// The peer answered with an `Error` frame.
    Rejected(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "net: connection closed"),
            NetError::Timeout => write!(f, "net: request timed out"),
            NetError::Disconnected => write!(f, "net: peer unreachable or disconnected"),
            NetError::Rejected(m) => write!(f, "net: peer rejected request: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// What a call changes, behind the connection's one mutex.
struct State {
    /// The session and the `Links` it waits in, made by the first call
    /// that needs them.
    links: Option<(Links, LinkId)>,
    closed: bool,
}

/// A client connection to one peer. Dropping it says goodbye.
pub struct Connection {
    addr: SocketAddr,
    cfg: NetConfig,
    /// One-way frames that found no session and could not dial one, or
    /// that the socket did not take.
    dead_letters: Arc<Counter>,
    /// Where the session counts its frames and bytes once it is made.
    telemetry: Telemetry,
    state: Mutex<State>,
}

impl Connection {
    /// Opens a connection. Nothing is dialed yet: the first call that
    /// needs a session does that.
    pub fn connect(addr: SocketAddr, cfg: NetConfig, telemetry: &Telemetry) -> Connection {
        Connection {
            addr,
            cfg,
            dead_letters: telemetry.counter("net.dead_letters"),
            telemetry: telemetry.clone(),
            state: Mutex::new(State {
                links: None,
                closed: false,
            }),
        }
    }

    /// The session's `Links` and its id, made on first use.
    fn links<'s>(&self, state: &'s mut State) -> (&'s mut Links, LinkId) {
        let (links, link) = state.links.get_or_insert_with(|| {
            let mut links = Links::default();
            let link = links.open(self.addr, &self.cfg.node, &self.telemetry);
            (links, link)
        });
        (links, *link)
    }

    /// The state, unless the connection is closed. A caller that
    /// panicked inside a call may have left half a frame on the wire,
    /// so a poisoned lock reads as closed too.
    fn open_state(&self) -> Result<MutexGuard<'_, State>, NetError> {
        match self.state.lock() {
            Ok(state) if !state.closed => Ok(state),
            _ => Err(NetError::Closed),
        }
    }

    /// True while a session is held. The peer may have ended it since
    /// the last call; the next call finds out.
    pub fn is_connected(&self) -> bool {
        self.open_state().is_ok_and(|mut state| {
            let Some((links, link)) = &mut state.links else {
                return false;
            };
            links.session(*link).is_ok_and(|(s, _)| s.held())
        })
    }

    /// Dials until a session is up or `timeout` elapses.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let up = self.open_state().map(|mut state| {
                let (links, link) = self.links(&mut state);
                let dialed = links.session(link).is_ok_and(|(s, p)| s.ensure(p));
                dialed && settle(links, link, deadline)
            });
            if up != Ok(false) || Instant::now() >= deadline {
                return up == Ok(true);
            }
            thread::sleep(REDIAL_PAUSE);
        }
    }

    /// Writes a one-way frame and waits (at most the request deadline)
    /// until the socket took it. The kernel's socket buffer is the
    /// backpressure; a frame that finds no session and cannot dial one,
    /// or that the socket does not take, is a dead letter
    /// (`net.dead_letters`).
    pub fn send(&self, frame: Frame) -> Result<(), NetError> {
        let mut state = self.open_state()?;
        let deadline = Instant::now() + self.cfg.request_timeout;
        let (links, link) = self.links(&mut state);
        let sent = links.session(link).and_then(|(s, p)| s.send(frame, p));
        if sent.is_ok() && settle(links, link, deadline) {
            return Ok(());
        }
        if let Ok((session, poller)) = links.session(link) {
            session.end(poller);
        }
        self.dead_letters.inc();
        Err(NetError::Disconnected)
    }

    /// Sends a request and blocks for its response (default deadline).
    pub fn request(&self, frame: Frame) -> Result<Frame, NetError> {
        self.request_timeout(frame, self.cfg.request_timeout)
    }

    /// Sends a request and blocks until the response with its
    /// correlation id arrives or `timeout` elapses. A timeout keeps the
    /// session; a hang-up drops it.
    pub(crate) fn request_timeout(
        &self,
        frame: Frame,
        timeout: Duration,
    ) -> Result<Frame, NetError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.open_state()?;
        let (links, link) = self.links(&mut state);
        let corr = links.request(link, frame)?;
        let mut answers = Vec::new();
        loop {
            if let Some(i) = answers.iter().position(|a: &Answer| a.corr == corr) {
                return answers.swap_remove(i).reply;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || links.poll(left, &mut answers).is_err() {
                links.forget(link, corr);
                return Err(NetError::Timeout);
            }
        }
    }

    /// Says `Shutdown` on the session, if one is up, so the peer can
    /// drop it without logging an error, and refuses every later call.
    pub fn close(&mut self) {
        // Poisoned: half a frame may be on the wire; the socket just closes.
        let Ok(state) = self.state.get_mut() else {
            return;
        };
        state.closed = true;
        if let Some((links, link)) = &mut state.links {
            links.close(*link);
        }
    }
}

/// Moves `link` along until its dial landed and its output reached the
/// socket (true), its session is gone or `deadline` passed (false).
fn settle(links: &mut Links, link: LinkId, deadline: Instant) -> bool {
    let mut answers = Vec::new();
    loop {
        match links.session(link).map(|(s, _)| (s.held(), s.settled())) {
            Ok((_, true)) => return true,
            Ok((true, false)) => {}
            _ => return false,
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || links.poll(left, &mut answers).is_err() {
            return false;
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
            .field("addr", &self.addr)
            .field("connected", &self.is_connected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Decoded, FrameDecoder};
    use crate::frame::{encode_envelope, Envelope};
    use crate::wire::{put_varint, PROTOCOL_VERSION};
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::mpsc;

    /// The peer's end of one session, hand-driven.
    struct Peer {
        stream: TcpStream,
        decoder: FrameDecoder,
    }

    impl Peer {
        fn accept(listener: &TcpListener) -> Peer {
            let (stream, _) = listener.accept().expect("accept");
            let _ = stream.set_nodelay(true);
            Peer {
                stream,
                decoder: FrameDecoder::new(),
            }
        }

        /// The next frame, or `None` when the client leaves.
        fn next_frame(&mut self) -> Option<Envelope> {
            let mut chunk = [0u8; 512];
            loop {
                match self.decoder.next().expect("clean stream") {
                    Some(Decoded::Frame(env, _)) => return Some(env),
                    Some(_) => continue,
                    None => match self.stream.read(&mut chunk) {
                        Ok(n) if n > 0 => self.decoder.extend(&chunk[..n]),
                        _ => return None,
                    },
                }
            }
        }

        /// Correlation id of the next request, or `None` when the
        /// client leaves without asking.
        fn next_request(&mut self) -> Option<u64> {
            std::iter::from_fn(|| self.next_frame())
                .find(|env| env.corr != 0)
                .map(|env| env.corr)
        }

        fn answer(&mut self, corr: u64, node: &str) {
            self.stream
                .write_all(&reply_bytes(corr, node.into()))
                .expect("write reply");
        }
    }

    /// Runs `script` against a fresh loopback listener on its own thread.
    fn scripted_peer(
        script: impl FnOnce(TcpListener) + Send + 'static,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("local addr");
        (addr, thread::spawn(move || script(listener)))
    }

    /// A hand-driven peer: accepts one session, waits for the first
    /// request, lets `answer` write whatever bytes it likes for that
    /// correlation id, then holds the session until the client leaves.
    fn raw_peer(
        answer: impl FnOnce(&mut TcpStream, u64) + Send + 'static,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        scripted_peer(move |listener| {
            let mut peer = Peer::accept(&listener);
            let corr = peer.next_request().expect("client left before asking");
            answer(&mut peer.stream, corr);
            while peer.next_request().is_some() {}
        })
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
        // One write per byte, pausing inside the length prefix and
        // inside the body: whatever the decoder holds when a read
        // returns must still be there for the next one.
        let pause = Duration::from_millis(5);
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
        let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
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

    #[test]
    fn a_send_that_finds_no_peer_is_one_dead_letter_and_writes_nothing() {
        // Reserve a port, then send before anything listens on it.
        let probe = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = probe.local_addr().expect("local addr");
        drop(probe);
        let telemetry = Telemetry::new();
        let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
        let beat = Frame::Heartbeat {
            switch: 1,
            seq: 2,
            at_ns: 3,
        };
        assert_eq!(conn.send(beat.clone()), Err(NetError::Disconnected));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.dead_letters"), 1);
        assert!(snap.counter("net.connect_failures") >= 1);
        assert_eq!(snap.counter("net.frames_sent"), 0, "nothing written");
        assert_eq!(snap.counter("net.bytes"), 0, "nothing written");

        // Once a peer binds, the next send dials and lands.
        let listener = TcpListener::bind(addr).expect("rebind the reserved port");
        conn.send(beat.clone()).expect("the next send lands");
        let mut peer = Peer::accept(&listener);
        let hello = peer.next_frame().expect("preamble").frame;
        assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
        assert_eq!(peer.next_frame().map(|env| env.frame), Some(beat));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.connects"), 1);
        assert_eq!(snap.counter("net.dead_letters"), 1);
    }

    #[test]
    fn a_late_reply_is_not_handed_to_the_next_request() {
        // The peer sits on the first request until the second one is on
        // the wire, then answers both, oldest first.
        let (addr, peer) = scripted_peer(|listener| {
            let mut peer = Peer::accept(&listener);
            let first = peer.next_request().expect("first request");
            let second = peer.next_request().expect("second request");
            peer.answer(first, "late");
            peer.answer(second, "fresh");
            while peer.next_request().is_some() {}
        });
        let telemetry = Telemetry::new();
        let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
        let timed_out = conn.request_timeout(Frame::Ack, Duration::from_millis(30));
        assert_eq!(timed_out, Err(NetError::Timeout));
        assert_eq!(conn.request(Frame::Ack), Ok(reply("fresh".into())));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.rpc_timeouts"), 1);
        assert_eq!(snap.counter("net.rpcs"), 1);
        assert_eq!(
            snap.counter("net.reconnects"),
            0,
            "a timeout keeps the session"
        );
        drop(conn);
        peer.join().expect("peer thread");
    }

    #[test]
    fn a_session_ended_while_idle_is_redialled_before_the_next_request() {
        // Once with a `Shutdown` goodbye, once with a bare hang-up.
        for goodbye in [true, false] {
            let (ended_tx, ended_rx) = mpsc::channel();
            let (addr, peer) = scripted_peer(move |listener| {
                let mut first = Peer::accept(&listener);
                let corr = first.next_request().expect("first request");
                first.answer(corr, "one");
                if goodbye {
                    let mut bye = Vec::new();
                    encode_envelope(&Envelope::one_way(Frame::Shutdown), &mut bye);
                    first.stream.write_all(&bye).expect("goodbye");
                }
                // Half-close: the client sees the end of the session,
                // this side still sees anything the client writes on it.
                first.stream.shutdown(Shutdown::Write).expect("half-close");
                ended_tx.send(()).expect("client waits");
                let mut second = Peer::accept(&listener);
                let corr = second.next_request().expect("second request");
                second.answer(corr, "two");
                assert_eq!(
                    first.next_request(),
                    None,
                    "nothing may be written on the session the peer ended"
                );
                while second.next_request().is_some() {}
            });
            let telemetry = Telemetry::new();
            let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
            assert_eq!(conn.request(Frame::Ack), Ok(reply("one".into())));
            ended_rx.recv().expect("peer ended the session");
            assert_eq!(
                conn.request(Frame::Ack),
                Ok(reply("two".into())),
                "no caller retry (goodbye: {goodbye})"
            );
            let snap = telemetry.snapshot();
            assert_eq!(snap.counter("net.connects"), 1);
            assert_eq!(snap.counter("net.reconnects"), 1);
            assert_eq!(snap.counter("net.rpcs"), 2);
            drop(conn);
            peer.join().expect("peer thread");
        }
    }

    #[test]
    fn a_peer_dying_mid_request_disconnects_and_is_never_asked_twice() {
        let (answered_tx, answered_rx) = mpsc::channel();
        let (addr, peer) = scripted_peer(move |listener| {
            let mut peer = Peer::accept(&listener);
            peer.next_request().expect("the request");
            drop(peer);
            // By the time the client has its answer, a transport that
            // re-sent would have dialed again.
            answered_rx.recv().expect("client got its error");
            listener.set_nonblocking(true).expect("nonblocking");
            let redial = listener.accept().map(|_| ());
            assert_eq!(
                redial.map_err(|e| e.kind()),
                Err(io::ErrorKind::WouldBlock),
                "the request must reach the peer exactly once"
            );
        });
        let telemetry = Telemetry::new();
        let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
        assert_eq!(conn.request(Frame::Ack), Err(NetError::Disconnected));
        assert!(!conn.is_connected());
        answered_tx.send(()).expect("peer waits");
        peer.join().expect("peer thread");
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.connects"), 1);
        assert_eq!(snap.counter("net.reconnects"), 0);
        assert_eq!(snap.counter("net.rpc_timeouts"), 0);
    }
}
