//! Outbound sessions: the client half of the transport, as values whose
//! owner drives them. A [`Session`] is one socket, one [`FrameDecoder`]
//! and one output ring, non-blocking throughout: asking writes a
//! request (dialling first if no session is held) and returns its
//! correlation id; readiness reported later moves the dial, the flush
//! and the read along and turns responses into answers. It is the only
//! client session there is, waited on two ways:
//!
//! * [`Links`] — many sessions behind one [`Poller`], for a daemon's
//!   core: fedd's pod sessions, farmd's coordinator session. Nothing
//!   blocks but [`Peers::poll`], and that only as long as its caller
//!   says; the poller's own descriptor can be watched by the core's
//!   [`Reactor`](crate::Reactor), so a dial that lands or a reply that
//!   arrives ends a waiting turn.
//! * [`Connection`](crate::Connection) — a `Links` of one session
//!   behind a mutex, whose calling thread waits in [`Peers::poll`]
//!   until its answer is in.
//!
//! Delivery semantics are the session's: nothing is ever re-sent, a
//! reply to a request its asker gave up on ([`Peers::forget`]) is
//! dropped, and a session that ends — a goodbye, a hang-up, broken
//! framing, a dial that failed or stayed in flight past
//! `CONNECT_TIMEOUT` — answers each request still waiting on it with
//! [`NetError::Disconnected`].

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use farm_telemetry::Telemetry;

use crate::buf::{ByteRing, Decoded, FrameDecoder};
use crate::conn::NetError;
use crate::frame::{Envelope, Frame};
use crate::poll::{Interest, PollEvent, Poller, Readiness, Token};
use crate::sock::{dial, NetCounters, CONNECT_TIMEOUT};
use crate::wire::PROTOCOL_VERSION;

/// A dial in flight waits to become writable: then it landed or failed.
const DIALING: Interest = Interest {
    readable: false,
    writable: true,
};

/// One client session, driven by its owner. See the module docs.
pub(crate) struct Session {
    addr: SocketAddr,
    node: String,
    /// Its token in the owner's poller.
    token: Token,
    counters: NetCounters,
    stream: Option<TcpStream>,
    /// While the dial is in flight: when it stops being waited for.
    dialing: Option<Instant>,
    /// The interest the owner's poller holds for `stream`.
    interest: Interest,
    decoder: FrameDecoder,
    out: ByteRing,
    /// Frames and bytes queued while the dial was in flight: accounted
    /// as sent once it lands, dropped with it if it fails.
    unsent: (u64, u64),
    /// Requests on the wire: correlation id and when it was asked.
    pending: Vec<(u64, Instant)>,
    /// Answers harvested and not yet handed to the owner.
    answers: Vec<(u64, Result<Frame, NetError>)>,
    next_corr: u64,
    /// A dial has landed before: the next one is a reconnect.
    dialed: bool,
}

impl Session {
    pub(crate) fn new(addr: SocketAddr, node: &str, token: Token, telemetry: &Telemetry) -> Self {
        Session {
            addr,
            node: node.to_string(),
            token,
            counters: NetCounters::new(telemetry),
            stream: None,
            dialing: None,
            interest: Interest::READ,
            decoder: FrameDecoder::new(),
            out: ByteRing::new(),
            unsent: (0, 0),
            pending: Vec::new(),
            answers: Vec::new(),
            next_corr: 1,
            dialed: false,
        }
    }

    /// A session is held (its dial may still be in flight).
    pub(crate) fn held(&self) -> bool {
        self.stream.is_some()
    }

    /// The dial landed and everything queued reached the socket.
    pub(crate) fn settled(&self) -> bool {
        self.held() && self.dialing.is_none() && self.out.is_empty()
    }

    fn want(&self) -> Interest {
        if self.dialing.is_some() {
            return DIALING;
        }
        Interest {
            readable: true,
            writable: !self.out.is_empty(),
        }
    }

    /// Writes a request; its answer comes from a later [`advance`].
    ///
    /// [`advance`]: Session::advance
    fn request(&mut self, frame: Frame, poller: &mut Poller) -> Result<u64, NetError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.write(&Envelope::request(corr, frame), poller)?;
        self.pending.push((corr, Instant::now()));
        Ok(corr)
    }

    /// Writes a one-way frame.
    pub(crate) fn send(&mut self, frame: Frame, poller: &mut Poller) -> Result<(), NetError> {
        self.write(&Envelope::one_way(frame), poller)
    }

    /// The asker stopped waiting for `corr`: its reply, if one comes,
    /// is dropped.
    fn forget(&mut self, corr: u64) {
        self.pending.retain(|(c, _)| *c != corr);
        self.answers.retain(|(c, _)| *c != corr);
        self.counters.rpc_timeouts.inc();
    }

    /// Makes sure a session is held: the held one is first read for
    /// whatever the peer sent while nobody asked — a goodbye or a
    /// hang-up among it ends that session here, before anything is
    /// written on it — and without one, one dial.
    pub(crate) fn ensure(&mut self, poller: &mut Poller) -> bool {
        if self.held() && self.dialing.is_none() {
            self.read(poller);
        }
        if !self.held() {
            self.dial(poller);
        }
        self.held()
    }

    fn write(&mut self, env: &Envelope, poller: &mut Poller) -> Result<(), NetError> {
        if !self.ensure(poller) {
            return Err(NetError::Disconnected);
        }
        self.queue(env);
        if !self.flush() {
            self.end(poller);
            return Err(NetError::Disconnected);
        }
        self.sync(poller);
        Ok(())
    }

    /// One dial attempt, the `Hello` preamble queued behind it.
    fn dial(&mut self, poller: &mut Poller) {
        let stream = dial(&self.addr).and_then(|stream| {
            let _ = stream.set_nodelay(true);
            poller.register(stream.as_raw_fd(), self.token, DIALING)?;
            Ok(stream)
        });
        let Ok(stream) = stream else {
            self.counters.connect_failures.inc();
            return;
        };
        self.stream = Some(stream);
        self.dialing = Some(Instant::now() + CONNECT_TIMEOUT);
        self.interest = self.want();
        self.queue(&Envelope::one_way(Frame::Hello {
            node: self.node.clone(),
            protocol: PROTOCOL_VERSION as u32,
        }));
    }

    fn queue(&mut self, env: &Envelope) {
        let len = self.out.push_envelope(env) as u64;
        if self.dialing.is_some() {
            self.unsent = (self.unsent.0 + 1, self.unsent.1 + len);
        } else {
            self.counters.frames_sent.inc();
            self.counters.bytes.add(len);
        }
    }

    /// Ends a dial that stayed in flight past its deadline.
    fn expire(&mut self, now: Instant, poller: &mut Poller) {
        if self.dialing.is_some_and(|deadline| now >= deadline) {
            self.counters.connect_failures.inc();
            self.end(poller);
        }
    }

    /// Acts on one readiness report: lands or fails the dial, flushes,
    /// reads.
    fn advance(&mut self, ready: Readiness, poller: &mut Poller) {
        let Some(stream) = &self.stream else {
            return;
        };
        if self.dialing.is_some() {
            if !(ready.writable || ready.error) {
                return;
            }
            if !matches!(stream.take_error(), Ok(None)) || stream.peer_addr().is_err() {
                self.counters.connect_failures.inc();
                self.end(poller);
                return;
            }
            self.dialing = None;
            if self.dialed {
                self.counters.reconnects.inc();
            } else {
                self.counters.connects.inc();
            }
            self.dialed = true;
            let (frames, bytes) = std::mem::take(&mut self.unsent);
            self.counters.frames_sent.add(frames);
            self.counters.bytes.add(bytes);
        }
        if !self.flush() {
            self.end(poller);
            return;
        }
        if ready.readable || ready.error {
            self.read(poller);
        }
        self.sync(poller);
    }

    /// Writes what the output ring holds, as far as the socket takes
    /// it. False when the session is over.
    fn flush(&mut self) -> bool {
        match &mut self.stream {
            Some(_) if self.dialing.is_some() => true,
            Some(stream) => self.out.write_to(stream),
            None => false,
        }
    }

    /// Reads whatever the socket holds and turns it into answers.
    /// Responses to a correlation id nobody waits for are skipped, as
    /// is every one-way frame but `Shutdown`, which ends the session —
    /// as do the end of the stream, a socket error and broken framing.
    fn read(&mut self, poller: &mut Poller) {
        let Some(stream) = &mut self.stream else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        let mut over = self.decoder.read_from(stream, &mut chunk, usize::MAX);
        loop {
            match self.decoder.next() {
                Ok(Some(Decoded::Frame(env, nbytes))) => {
                    self.counters.bytes.add(nbytes as u64);
                    self.counters.frames_received.inc();
                    if !env.response {
                        if matches!(env.frame, Frame::Shutdown) {
                            over = true;
                            break;
                        }
                        continue;
                    }
                    let Some(i) = self.pending.iter().position(|(c, _)| *c == env.corr) else {
                        continue;
                    };
                    let (corr, asked) = self.pending.swap_remove(i);
                    let answer = match env.frame {
                        Frame::Error { message } => Err(NetError::Rejected(message)),
                        frame => {
                            self.counters.rpcs.inc();
                            self.counters
                                .rpc_latency_us
                                .record(asked.elapsed().as_micros() as u64);
                            Ok(frame)
                        }
                    };
                    self.answers.push((corr, answer));
                }
                // An undecodable body: counted, and the stream is still
                // aligned. (A client has nothing to answer, so the
                // recovered correlation id goes unused.)
                Ok(Some(Decoded::Bad { nbytes, .. })) => {
                    self.counters.bytes.add(nbytes as u64);
                    self.counters.decode_errors.inc();
                }
                Ok(None) => break,
                Err(_) => {
                    self.counters.decode_errors.inc();
                    over = true;
                    break;
                }
            }
        }
        if over {
            self.end(poller);
        }
    }

    /// Keeps the owner's poller interest in step with the session.
    fn sync(&mut self, poller: &mut Poller) {
        let Some(stream) = &self.stream else {
            return;
        };
        let want = self.want();
        if want != self.interest && poller.modify(stream.as_raw_fd(), self.token, want).is_ok() {
            self.interest = want;
        }
    }

    /// Drops the session; every request still waiting on it is answered
    /// `Disconnected`. The next write dials afresh.
    pub(crate) fn end(&mut self, poller: &mut Poller) {
        if let Some(stream) = self.stream.take() {
            let _ = poller.deregister(stream.as_raw_fd());
        }
        self.dialing = None;
        self.decoder = FrameDecoder::new();
        self.out = ByteRing::new();
        self.unsent = (0, 0);
        for (corr, _) in self.pending.drain(..) {
            self.answers.push((corr, Err(NetError::Disconnected)));
        }
    }

    /// Says `Shutdown` on a live session, so the peer can drop it
    /// without logging an error, and hangs up.
    fn close(&mut self, poller: &mut Poller) {
        if self.held() && self.dialing.is_none() {
            self.queue(&Envelope::one_way(Frame::Shutdown));
            self.flush();
        }
        if let Some(stream) = &self.stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.end(poller);
    }
}

/// Names one session of a [`Links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkId(pub usize);

/// A reply (or a failure) [`Peers::poll`] harvested for a request.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub link: LinkId,
    /// The correlation id [`Peers::request`] returned.
    pub corr: u64,
    /// The response frame; `Rejected` for a peer's `Error` frame,
    /// `Disconnected` when the session ended first.
    pub reply: Result<Frame, NetError>,
}

/// Outbound sessions behind one poller, driven by the thread that owns
/// them. Dropping it says goodbye on every session.
pub struct Links {
    /// `None` when no poller could be had: sessions still dial, write
    /// and read when asked, but nothing can wait on them.
    poller: Option<Poller>,
    sessions: Vec<Option<Session>>,
    events: Vec<PollEvent>,
}

/// What a daemon core does with its outbound sessions, and the clock
/// it reads: [`Links`] over sockets on the wall clock is the production
/// one; a simulated network on a virtual clock can stand in for it, so
/// a core's rounds replay exactly.
pub trait Peers {
    /// Adds a session to `addr`, announced as `node`. Nothing is dialed
    /// until the first request.
    fn open(&mut self, addr: SocketAddr, node: &str, telemetry: &Telemetry) -> LinkId;

    /// Says goodbye on `link` and forgets it.
    fn close(&mut self, link: LinkId);

    /// Writes a request on `link`, dialling first (without waiting for
    /// the dial) if no session is held, and returns its correlation id.
    /// The reply arrives as an [`Answer`] from a later [`poll`].
    ///
    /// # Errors
    ///
    /// `Closed` for a link that is not open; `Disconnected` when no
    /// dial could be started or the write failed.
    ///
    /// [`poll`]: Peers::poll
    fn request(&mut self, link: LinkId, frame: Frame) -> Result<u64, NetError>;

    /// Stops waiting for `corr` on `link` (`net.rpc_timeouts`): a reply
    /// that still comes is dropped, and the request is never re-sent.
    fn forget(&mut self, link: LinkId, corr: u64);

    /// Waits up to `timeout` for any session to be ready (not at all if
    /// an answer is already in hand), moves every ready one along, and
    /// appends the answers harvested to `out`.
    ///
    /// # Errors
    ///
    /// Only the poller's own failure, or `Unsupported` when there is no
    /// poller.
    fn poll(&mut self, timeout: Duration, out: &mut Vec<Answer>) -> io::Result<()>;

    /// The core's clock: the wall clock, for [`Links`].
    fn now(&self) -> Instant;
}

impl Peers for Links {
    fn open(&mut self, addr: SocketAddr, node: &str, telemetry: &Telemetry) -> LinkId {
        let slot = match self.sessions.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                self.sessions.push(None);
                self.sessions.len() - 1
            }
        };
        self.sessions[slot] = Some(Session::new(addr, node, Token(slot as u64), telemetry));
        LinkId(slot)
    }

    fn close(&mut self, link: LinkId) {
        let session = self.sessions.get_mut(link.0).and_then(Option::take);
        if let (Some(mut session), Some(poller)) = (session, &mut self.poller) {
            session.close(poller);
        }
    }

    fn request(&mut self, link: LinkId, frame: Frame) -> Result<u64, NetError> {
        let (session, poller) = self.session(link)?;
        session.request(frame, poller)
    }

    fn forget(&mut self, link: LinkId, corr: u64) {
        if let Ok((session, _)) = self.session(link) {
            session.forget(corr);
        }
    }

    fn poll(&mut self, timeout: Duration, out: &mut Vec<Answer>) -> io::Result<()> {
        let poller = self.poller.as_mut().ok_or(io::ErrorKind::Unsupported)?;
        let now = Instant::now();
        let mut wait = timeout;
        for session in self.sessions.iter_mut().flatten() {
            session.expire(now, poller);
            if !session.answers.is_empty() {
                wait = Duration::ZERO;
            }
            if let Some(deadline) = session.dialing {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }
        self.events.clear();
        poller.wait(ceil_ms(wait), &mut self.events)?;
        for ev in &self.events {
            if let Some(Some(session)) = self.sessions.get_mut(ev.token.0 as usize) {
                session.advance(ev.readiness, poller);
            }
        }
        for (slot, session) in self.sessions.iter_mut().enumerate() {
            let Some(session) = session else { continue };
            out.extend(session.answers.drain(..).map(|(corr, reply)| Answer {
                link: LinkId(slot),
                corr,
                reply,
            }));
        }
        Ok(())
    }

    fn now(&self) -> Instant {
        Instant::now()
    }
}

impl Links {
    /// `link`'s session and the poller it is registered in: `Closed`
    /// for a link that is not open, `Disconnected` when there is no
    /// poller to register a session in.
    pub(crate) fn session(
        &mut self,
        link: LinkId,
    ) -> Result<(&mut Session, &mut Poller), NetError> {
        let session = self.sessions.get_mut(link.0).and_then(Option::as_mut);
        let session = session.ok_or(NetError::Closed)?;
        let poller = self.poller.as_mut().ok_or(NetError::Disconnected)?;
        Ok((session, poller))
    }

    /// The poller's descriptor, for a reactor to watch.
    pub(crate) fn fd(&self) -> Option<RawFd> {
        self.poller.as_ref().and_then(Poller::fd)
    }
}

/// An empty set. If the poller cannot be created (descriptor
/// exhaustion), every [`Peers::poll`] says so.
impl Default for Links {
    fn default() -> Links {
        Links {
            poller: Poller::new().ok(),
            sessions: Vec::new(),
            events: Vec::with_capacity(64),
        }
    }
}

impl Drop for Links {
    fn drop(&mut self) {
        if let Some(poller) = &mut self.poller {
            for session in self.sessions.iter_mut().flatten() {
                session.close(poller);
            }
        }
    }
}

/// `d` in whole milliseconds, rounded up so a wait never ends before
/// the deadline it was computed from.
fn ceil_ms(d: Duration) -> i32 {
    d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::Decoded;
    use crate::frame::encode_envelope;
    use crate::reactor::Reactor;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::thread;

    /// A peer that answers each request, after `delay`, with a `Hello`
    /// naming itself, until the client leaves.
    fn peer(name: &'static str, delay: Duration) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let serve = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut decoder = FrameDecoder::new();
            let mut chunk = [0u8; 512];
            loop {
                match decoder.next().expect("clean stream") {
                    Some(Decoded::Frame(env, _)) if env.corr != 0 => {
                        thread::sleep(delay);
                        let reply = Frame::Hello {
                            node: name.into(),
                            protocol: 1,
                        };
                        let mut wire = Vec::new();
                        encode_envelope(&Envelope::response(env.corr, reply), &mut wire);
                        if stream.write_all(&wire).is_err() {
                            return;
                        }
                    }
                    Some(_) => {}
                    None => match stream.read(&mut chunk) {
                        Ok(n) if n > 0 => decoder.extend(&chunk[..n]),
                        _ => return,
                    },
                }
            }
        });
        (addr, serve)
    }

    fn poll_until(links: &mut Links, n: usize) -> Vec<Answer> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut answers = Vec::new();
        while answers.len() < n {
            assert!(Instant::now() < deadline, "only {answers:?}");
            links
                .poll(Duration::from_millis(50), &mut answers)
                .expect("poll");
        }
        answers
    }

    #[test]
    fn requests_on_many_links_are_answered_in_any_order_and_a_forgotten_one_never() {
        let telemetry = Telemetry::new();
        let mut links = Links::default();
        let (slow_addr, slow) = peer("slow", Duration::from_millis(60));
        let (fast_addr, fast) = peer("fast", Duration::ZERO);
        let slow_link = links.open(slow_addr, "t", &telemetry);
        let fast_link = links.open(fast_addr, "t", &telemetry);
        // Both written before either is waited on: neither call blocks.
        let asked = Instant::now();
        let slow_corr = links.request(slow_link, Frame::Ack).expect("write");
        let fast_corr = links.request(fast_link, Frame::Ack).expect("write");
        assert!(asked.elapsed() < Duration::from_millis(50));
        let answers = poll_until(&mut links, 2);
        let named = |a: &Answer| match &a.reply {
            Ok(Frame::Hello { node, .. }) => (a.link, a.corr, node.clone()),
            other => panic!("{other:?}"),
        };
        let got: Vec<_> = answers.iter().map(named).collect();
        assert_eq!(
            got,
            [
                (fast_link, fast_corr, "fast".to_string()),
                (slow_link, slow_corr, "slow".to_string())
            ]
        );
        // Forgotten: the reply that still comes is dropped.
        let corr = links.request(slow_link, Frame::Ack).expect("write");
        links.forget(slow_link, corr);
        let mut late = Vec::new();
        for _ in 0..4 {
            links
                .poll(Duration::from_millis(40), &mut late)
                .expect("poll");
        }
        assert!(late.is_empty(), "{late:?}");
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.rpcs"), 2);
        assert_eq!(snap.counter("net.rpc_timeouts"), 1);
        drop(links);
        slow.join().expect("slow peer");
        fast.join().expect("fast peer");
    }

    #[test]
    fn a_session_that_ends_answers_what_waits_on_it_and_a_dead_dial_too() {
        let telemetry = Telemetry::new();
        let mut links = Links::default();
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let link = links.open(addr, "t", &telemetry);
        let corr = links.request(link, Frame::Ack).expect("write");
        let (stream, _) = listener.accept().expect("accept");
        drop(stream);
        let answers = poll_until(&mut links, 1);
        assert_eq!(answers[0].corr, corr);
        assert_eq!(answers[0].reply, Err(NetError::Disconnected));
        // Nothing listens any more: the next request's dial fails.
        drop(listener);
        let answer = match links.request(link, Frame::Ack) {
            Ok(_) => poll_until(&mut links, 1).remove(0).reply,
            Err(e) => Err(e),
        };
        assert_eq!(answer, Err(NetError::Disconnected));
        assert!(telemetry.snapshot().counter("net.connect_failures") >= 1);
        assert_eq!(telemetry.snapshot().counter("net.connects"), 1);
    }

    /// Only epoll nests in another poller.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_reactor_watching_the_links_wakes_for_a_reply() {
        let telemetry = Telemetry::new();
        let mut reactor =
            Reactor::bind("127.0.0.1:0".parse().expect("addr"), &telemetry).expect("bind");
        let mut links = Links::default();
        reactor.watch(&links).expect("watch");
        let (addr, peer) = peer("p", Duration::from_millis(30));
        let link = links.open(addr, "t", &telemetry);
        links.request(link, Frame::Ack).expect("write");
        // Each turn wakes on the links' readiness well inside its 2 s
        // timeout; moving them along is the owner's, between turns.
        let mut answers = Vec::new();
        let asked = Instant::now();
        while answers.is_empty() {
            reactor.turn(2_000, &mut |_| None).expect("turn");
            links.poll(Duration::ZERO, &mut answers).expect("poll");
        }
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "{:?}",
            asked.elapsed()
        );
        assert!(matches!(answers[0].reply, Ok(Frame::Hello { .. })));
        drop(links);
        peer.join().expect("peer");
    }
}
