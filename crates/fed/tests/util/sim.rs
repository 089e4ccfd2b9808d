//! The federation in one thread on one virtual clock: one fedd core and
//! a few farmd cores, stepped turn by turn the way `farm_ctl::daemon`
//! runs them — a turn serves the requests that arrived, in arrival
//! order, through the daemon's own [`Dispatch`], then ticks; an idle
//! core turns every [`TURN_MS`]. They talk through a seeded [`Wire`]
//! that carries encoded envelopes (`encode_envelope` in,
//! [`FrameDecoder`] out, so a codec defect shows) and applies loss,
//! delay — hence reorder — and cut-off pods.
//!
//! The cores run over [`SimPeers`], the simulation's [`Peers`]: its
//! clock is the wire's, and while fedd waits in a fan-out its `poll`
//! steps the pods until an answer lands or the wait is over. Nothing
//! sleeps, and a seed replays byte for byte ([`Wire::trace`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_ctl::config::FedMembership;
use farm_ctl::daemon::{Core, Dispatch, TURN_MS};
use farm_ctl::FarmdConfig;
use farm_fed::FeddConfig;
use farm_net::{
    encode_envelope, Answer, ControlOp, ControlReply, Decoded, Envelope, Frame, FrameDecoder,
    LinkId, NetError, Peers, PROTOCOL_VERSION,
};
use farm_telemetry::{Snapshot, Telemetry};
use rand::{RngExt, SeedableRng, SplitMix64};

/// The coordinator and a pod, over the simulated network.
pub type Fedd = farm_fed::server::Core<SimPeers>;
pub type Pod = farm_ctl::server::Core<SimPeers>;

const fn addr(a: u8, b: u8, port: u16) -> SocketAddr {
    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(10, 0, a, b), port))
}

/// fedd's address.
pub const FEDD: SocketAddr = addr(0, 1, 4600);
/// Where the test's own requests come from.
pub const CLIENT: SocketAddr = addr(9, 1, 9000);

/// Pod `i`'s address.
pub fn pod_addr(i: usize) -> SocketAddr {
    addr(1, i as u8 + 1, 4700)
}

/// One way between the test client and a daemon: the client sits next
/// to the daemons, on no faulty path.
pub const CLIENT_DELAY: Duration = Duration::from_millis(1);

/// How long [`Sim::ask`] waits for its replies, virtual.
const PATIENCE: Duration = Duration::from_secs(120);

/// What the wire does to a parcel between fedd and a pod.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// Chance a parcel is lost.
    pub loss: f64,
    /// One-way delay, uniform in `[min, max]`: parcels sent close
    /// together may land in either order.
    pub delay: (Duration, Duration),
    /// Addresses cut off: every parcel to or from one is lost.
    pub cut: BTreeSet<SocketAddr>,
    /// Extra delay on every parcel an address sends.
    pub slow: BTreeMap<SocketAddr, Duration>,
}

/// One session: a client's requests to a server and the replies back.
struct Session {
    client: SocketAddr,
    server: SocketAddr,
    /// Bytes toward the server, and toward the client.
    up: FrameDecoder,
    down: FrameDecoder,
    /// The client still holds it: replies to a closed one are dropped.
    open: bool,
    said_hello: bool,
    next_corr: u64,
    pending: Vec<u64>,
    answers: Vec<(u64, Result<Frame, NetError>)>,
}

/// A parcel in flight: one encoded envelope.
struct Parcel {
    session: usize,
    up: bool,
    bytes: Vec<u8>,
}

/// The network and the clock every core reads.
pub struct Wire {
    start: Instant,
    /// Virtual time since the simulation began.
    pub now: Duration,
    rng: SplitMix64,
    pub faults: Faults,
    sessions: Vec<Session>,
    /// Parcels in flight, by landing time and send order.
    flight: BTreeMap<(Duration, u64), Parcel>,
    sent: u64,
    /// Requests landed at each server, in arrival order, not yet served.
    inbox: BTreeMap<SocketAddr, VecDeque<(usize, Envelope)>>,
    /// Every answer fedd harvested: the pod's address and the reply.
    pub harvested: Vec<(SocketAddr, Result<Frame, NetError>)>,
    /// Every parcel's send and landing time (`-` when lost), session,
    /// direction and bytes, and every reply the client got.
    pub trace: Vec<u8>,
}

impl Wire {
    fn new(seed: u64) -> Wire {
        Wire {
            start: Instant::now(),
            now: Duration::ZERO,
            rng: SplitMix64::seed_from_u64(seed),
            faults: Faults::default(),
            sessions: Vec::new(),
            flight: BTreeMap::new(),
            sent: 0,
            inbox: BTreeMap::new(),
            harvested: Vec::new(),
            trace: Vec::new(),
        }
    }

    pub fn instant(&self) -> Instant {
        self.start + self.now
    }

    fn open(&mut self, client: SocketAddr, server: SocketAddr) -> usize {
        self.sessions.push(Session {
            client,
            server,
            up: FrameDecoder::new(),
            down: FrameDecoder::new(),
            open: true,
            said_hello: false,
            next_corr: 1,
            pending: Vec::new(),
            answers: Vec::new(),
        });
        self.sessions.len() - 1
    }

    /// Writes a request, the `Hello` preamble first on a new session.
    fn request(&mut self, session: usize, frame: Frame) -> u64 {
        let s = &mut self.sessions[session];
        let hello = !std::mem::replace(&mut s.said_hello, true);
        let corr = s.next_corr;
        s.next_corr += 1;
        s.pending.push(corr);
        if hello {
            let node = s.client.to_string();
            let hello = Frame::Hello {
                node,
                protocol: PROTOCOL_VERSION as u32,
            };
            self.send(session, true, &Envelope::one_way(hello));
        }
        self.send(session, true, &Envelope::request(corr, frame));
        corr
    }

    fn forget(&mut self, session: usize, corr: u64) {
        let s = &mut self.sessions[session];
        s.pending.retain(|&c| c != corr);
        s.answers.retain(|&(c, _)| c != corr);
    }

    fn send(&mut self, session: usize, up: bool, env: &Envelope) {
        let mut bytes = Vec::new();
        encode_envelope(env, &mut bytes);
        let s = &self.sessions[session];
        let (from, to) = if up {
            (s.client, s.server)
        } else {
            (s.server, s.client)
        };
        let lands = self.fate(from, to).map(|d| self.now + d);
        let arrow = if up { '>' } else { '<' };
        let at = lands.map_or("-".into(), |t| t.as_nanos().to_string());
        let line = format!("{} {at} s{session}{arrow} ", self.now.as_nanos());
        self.trace.extend_from_slice(line.as_bytes());
        self.trace.extend_from_slice(&bytes);
        self.trace.push(b'\n');
        if let Some(lands) = lands {
            self.sent += 1;
            let parcel = Parcel { session, up, bytes };
            self.flight.insert((lands, self.sent), parcel);
        }
    }

    /// The delay a parcel from `from` to `to` takes, `None` when it is
    /// lost. Every parcel between daemons draws twice, lost or not, so
    /// one fault does not shift the draws of the rest.
    fn fate(&mut self, from: SocketAddr, to: SocketAddr) -> Option<Duration> {
        if from == CLIENT || to == CLIENT {
            return Some(CLIENT_DELAY);
        }
        let lost = self.rng.random::<f64>() < self.faults.loss;
        let (min, max) = self.faults.delay;
        let delay = min + (max - min).mul_f64(self.rng.random::<f64>());
        let cut = self.faults.cut.contains(&from) || self.faults.cut.contains(&to);
        let slow = self.faults.slow.get(&from).copied().unwrap_or_default();
        (!lost && !cut).then_some(delay + slow)
    }

    fn next_landing(&self) -> Option<Duration> {
        self.flight.keys().next().map(|&(t, _)| t)
    }

    /// Lands every parcel due by now: a request joins its server's
    /// inbox, a reply its session's answers (if still awaited).
    fn land_due(&mut self) {
        while let Some(entry) = self.flight.first_entry() {
            if entry.key().0 > self.now {
                break;
            }
            let Parcel { session, up, bytes } = entry.remove();
            let s = &mut self.sessions[session];
            let decoder = if up { &mut s.up } else { &mut s.down };
            decoder.extend(&bytes);
            loop {
                let env = match decoder.next() {
                    Ok(Some(Decoded::Frame(env, _))) => env,
                    Ok(None) => break,
                    other => panic!("the wire carries whole frames: {other:?}"),
                };
                if up {
                    let inbox = self.inbox.entry(s.server).or_default();
                    inbox.push_back((session, env));
                } else if let Some(i) = s.pending.iter().position(|&c| c == env.corr) {
                    if !s.open || !env.response {
                        continue;
                    }
                    s.pending.swap_remove(i);
                    let reply = match env.frame {
                        Frame::Error { message } => Err(NetError::Rejected(message)),
                        frame => Ok(frame),
                    };
                    s.answers.push((env.corr, reply));
                }
            }
        }
    }

    /// Lands parcels until `done` or `until`, turning no node.
    fn wait(&mut self, until: Duration, done: &dyn Fn(&Wire) -> bool) {
        while !done(self) {
            match self.next_landing() {
                Some(t) if t <= until => self.now = self.now.max(t),
                _ => {
                    self.now = self.now.max(until);
                    return;
                }
            }
            self.land_due();
        }
    }

    /// Whether any of `sessions` holds an answer.
    fn answered(&self, sessions: &[Option<usize>]) -> bool {
        let held = |&s: &usize| !self.sessions[s].answers.is_empty();
        sessions.iter().flatten().any(held)
    }
}

/// The simulation's [`Peers`]: sessions on the [`Wire`], its clock, and
/// — for fedd — the pods its waits step.
pub struct SimPeers {
    wire: Rc<RefCell<Wire>>,
    me: SocketAddr,
    links: Vec<Option<usize>>,
    pods: Option<Rc<RefCell<Vec<Node<Pod>>>>>,
}

impl SimPeers {
    fn session(&self, link: LinkId) -> Result<usize, NetError> {
        self.links
            .get(link.0)
            .copied()
            .flatten()
            .ok_or(NetError::Closed)
    }
}

impl Peers for SimPeers {
    fn open(&mut self, addr: SocketAddr, _node: &str, _telemetry: &Telemetry) -> LinkId {
        let session = self.wire.borrow_mut().open(self.me, addr);
        match self.links.iter().position(Option::is_none) {
            Some(slot) => {
                self.links[slot] = Some(session);
                LinkId(slot)
            }
            None => {
                self.links.push(Some(session));
                LinkId(self.links.len() - 1)
            }
        }
    }

    fn close(&mut self, link: LinkId) {
        if let Some(session) = self.links.get_mut(link.0).and_then(Option::take) {
            self.wire.borrow_mut().sessions[session].open = false;
        }
    }

    fn request(&mut self, link: LinkId, frame: Frame) -> Result<u64, NetError> {
        let session = self.session(link)?;
        Ok(self.wire.borrow_mut().request(session, frame))
    }

    fn forget(&mut self, link: LinkId, corr: u64) {
        if let Ok(session) = self.session(link) {
            self.wire.borrow_mut().forget(session, corr);
        }
    }

    /// Waits until an answer is in hand or `timeout` has passed, then
    /// harvests. fedd's wait steps the pods; a pod that waits holds up
    /// everything but the wire itself, so its wait shows as virtual
    /// time spent.
    fn poll(&mut self, timeout: Duration, out: &mut Vec<Answer>) -> io::Result<()> {
        if !timeout.is_zero() {
            let until = self.wire.borrow().now + timeout;
            let links = &self.links;
            let done = |w: &Wire| w.answered(links);
            match &self.pods {
                Some(pods) => step(&self.wire, None, pods, until, &done),
                None => self.wire.borrow_mut().wait(until, &done),
            }
        }
        let mut wire = self.wire.borrow_mut();
        for (slot, session) in self.links.iter().enumerate() {
            let Some(session) = *session else { continue };
            let server = wire.sessions[session].server;
            for (corr, reply) in std::mem::take(&mut wire.sessions[session].answers) {
                if self.me == FEDD {
                    wire.harvested.push((server, reply.clone()));
                }
                let link = LinkId(slot);
                out.push(Answer { link, corr, reply });
            }
        }
        Ok(())
    }

    fn now(&self) -> Instant {
        self.wire.borrow().instant()
    }
}

/// A daemon core at an address, turned the way the daemon's thread
/// turns it.
pub struct Node<C> {
    pub addr: SocketAddr,
    pub core: C,
    dispatch: Dispatch,
    /// When it booted: where its trace ring's `at_us` counts from.
    pub booted: Duration,
    next_turn: Duration,
    /// A frozen node takes no turn: what reaches it waits.
    pub frozen: bool,
    /// The node freezes once it has answered this many more requests;
    /// what reached it with them is lost.
    pub dies_after: Option<usize>,
}

impl<C: Core<Peers = SimPeers>> Node<C> {
    fn new(addr: SocketAddr, core: C, now: Duration) -> Node<C> {
        Node {
            addr,
            dispatch: Dispatch::new(&core, Arc::default()),
            core,
            booted: now,
            next_turn: now,
            frozen: false,
            dies_after: None,
        }
    }

    /// When the node next turns: now with requests waiting, else at its
    /// idle turn.
    fn due(&self, wire: &Wire) -> Option<Duration> {
        if self.frozen {
            return None;
        }
        let waiting = wire.inbox.get(&self.addr).is_some_and(|q| !q.is_empty());
        Some(if waiting { wire.now } else { self.next_turn })
    }

    /// Serves what arrived, in order, then ticks.
    fn turn(&mut self, wire: &RefCell<Wire>) {
        let arrived = wire.borrow_mut().inbox.remove(&self.addr);
        for (session, env) in arrived.into_iter().flatten() {
            if self.frozen {
                return;
            }
            let reply = self.dispatch.answer(&mut self.core, &env);
            if env.corr != 0 && !env.response {
                let reply = Envelope::response(env.corr, reply.unwrap_or(Frame::Ack));
                wire.borrow_mut().send(session, false, &reply);
                if let Some(left) = &mut self.dies_after {
                    *left = left.saturating_sub(1);
                    self.frozen = *left == 0;
                }
            }
        }
        if self.frozen {
            return;
        }
        let now = self.core.links().now();
        self.core.tick(now);
        let wire = wire.borrow();
        self.next_turn = wire.now + Duration::from_millis(TURN_MS as u64);
    }
}

/// Moves time to `until`, or until `done`: each step lands the parcels
/// due, then turns every node due — fedd first, then the pods in order.
fn step(
    wire: &RefCell<Wire>,
    mut fedd: Option<&mut Node<Fedd>>,
    pods: &RefCell<Vec<Node<Pod>>>,
    until: Duration,
    done: &dyn Fn(&Wire) -> bool,
) {
    loop {
        {
            let mut w = wire.borrow_mut();
            if done(&w) {
                return;
            }
            let pods = pods.borrow();
            let next = (pods.iter().filter_map(|p| p.due(&w)))
                .chain(fedd.as_ref().and_then(|f| f.due(&w)))
                .chain(w.next_landing())
                .min();
            match next {
                Some(t) if t <= until => w.now = w.now.max(t),
                _ => {
                    w.now = w.now.max(until);
                    return;
                }
            }
            w.land_due();
        }
        let due = |due: Option<Duration>, wire: &RefCell<Wire>| {
            due.is_some_and(|t| t <= wire.borrow().now)
        };
        if let Some(fedd) = fedd.as_deref_mut() {
            if due(fedd.due(&wire.borrow()), wire) {
                fedd.turn(wire);
            }
        }
        let n = pods.borrow().len();
        for i in 0..n {
            let mut pods = pods.borrow_mut();
            if due(pods[i].due(&wire.borrow()), wire) {
                pods[i].turn(wire);
            }
        }
    }
}

/// How a simulation is set up.
pub struct Setup {
    pub pods: Vec<&'static str>,
    /// fedd's `[fed]` section.
    pub fedd: String,
    /// Every pod's farmd configuration; the `[fed]` membership is
    /// filled in per pod.
    pub pod: FarmdConfig,
    pub heartbeat: Duration,
}

impl Default for Setup {
    fn default() -> Setup {
        Setup {
            pods: vec!["a", "b", "c"],
            fedd: "[fed]\nliveness_timeout_ms = 1000\npod_timeout_ms = 500\n".into(),
            pod: FarmdConfig {
                spines: 1,
                leaves: 3,
                restore_on_boot: false,
                ..FarmdConfig::default()
            },
            heartbeat: Duration::from_millis(100),
        }
    }
}

/// A fedd and its pods, and the test client's sessions.
pub struct Sim {
    pub wire: Rc<RefCell<Wire>>,
    pub fedd: Node<Fedd>,
    pub pods: Rc<RefCell<Vec<Node<Pod>>>>,
    pub names: Vec<&'static str>,
    client: BTreeMap<SocketAddr, usize>,
}

impl Sim {
    /// Boots fedd, then each pod in turn, each registered before the
    /// next boots, so the bases follow `setup.pods`' order.
    pub fn new(seed: u64, setup: Setup) -> Sim {
        let wire = Rc::new(RefCell::new(Wire::new(seed)));
        let pods = Rc::new(RefCell::new(Vec::new()));
        let peers = |me: SocketAddr, pods: Option<Rc<RefCell<Vec<Node<Pod>>>>>| SimPeers {
            wire: Rc::clone(&wire),
            me,
            links: Vec::new(),
            pods,
        };
        let config = FeddConfig::from_toml_str(&setup.fedd).expect("fedd config");
        let fedd = Fedd::boot(config, peers(FEDD, Some(Rc::clone(&pods))));
        let fedd = Node::new(FEDD, fedd, Duration::ZERO);
        let mut sim = Sim {
            wire: Rc::clone(&wire),
            fedd,
            pods: Rc::clone(&pods),
            names: Vec::new(),
            client: BTreeMap::new(),
        };
        for (i, name) in setup.pods.iter().enumerate() {
            sim.boot_pod_with(name, setup.pod.clone(), setup.heartbeat);
            let until = sim.now() + Duration::from_secs(5);
            sim.run_until(until, |sim| sim.pod_counter(i, "fed.pod.registrations") > 0);
            assert!(
                sim.pod_counter(i, "fed.pod.registrations") > 0,
                "{name} registers"
            );
        }
        sim
    }

    /// Boots one more pod on the default fabric, beating every
    /// `heartbeat`, without waiting for it to register.
    pub fn boot_pod(&mut self, name: &'static str, heartbeat: Duration) {
        self.boot_pod_with(name, Setup::default().pod, heartbeat);
    }

    fn boot_pod_with(&mut self, name: &'static str, mut config: FarmdConfig, heartbeat: Duration) {
        let i = self.pods.borrow().len();
        let addr = pod_addr(i);
        config.server.listen = addr;
        config.fed = Some(FedMembership {
            coordinator: FEDD,
            pod_name: name.to_string(),
            heartbeat,
            advertise: None,
        });
        let peers = SimPeers {
            wire: Rc::clone(&self.wire),
            me: addr,
            links: Vec::new(),
            pods: None,
        };
        let core = Pod::boot(config, peers);
        let node = Node::new(addr, core, self.now());
        self.pods.borrow_mut().push(node);
        if !self.names.contains(&name) {
            self.names.push(name);
        }
    }

    pub fn now(&self) -> Duration {
        self.wire.borrow().now
    }

    /// Runs until `until`, or until `done` holds of the wire.
    pub fn step_until(&mut self, until: Duration, done: &dyn Fn(&Wire) -> bool) {
        let (wire, pods) = (Rc::clone(&self.wire), Rc::clone(&self.pods));
        step(&wire, Some(&mut self.fedd), &pods, until, done);
    }

    /// Runs until `until`, or until `done` holds, looked at every
    /// virtual millisecond.
    pub fn run_until(&mut self, until: Duration, done: impl Fn(&Sim) -> bool) {
        while !done(self) && self.now() < until {
            let next = self.now() + Duration::from_millis(1);
            self.step_until(next.min(until), &|_| false);
        }
    }

    pub fn run_for(&mut self, d: Duration) {
        let until = self.now() + d;
        self.step_until(until, &|_| false);
    }

    /// Sends `ops` to the daemon at `to` in one write, and runs until
    /// each is answered: the replies with the virtual time each came.
    pub fn ask(&mut self, to: SocketAddr, ops: Vec<ControlOp>) -> Vec<(Duration, ControlReply)> {
        let session = *self.client.entry(to).or_insert_with(|| {
            let mut wire = self.wire.borrow_mut();
            wire.open(CLIENT, to)
        });
        let corrs: Vec<u64> = ops
            .into_iter()
            .map(|op| {
                self.wire
                    .borrow_mut()
                    .request(session, Frame::Control { op })
            })
            .collect();
        let mut replies = BTreeMap::new();
        let deadline = self.now() + PATIENCE;
        while replies.len() < corrs.len() {
            assert!(self.now() < deadline, "no reply from {to} in {PATIENCE:?}");
            self.step_until(deadline, &|w| !w.sessions[session].answers.is_empty());
            let mut wire = self.wire.borrow_mut();
            let now = wire.now;
            for (corr, reply) in std::mem::take(&mut wire.sessions[session].answers) {
                let reply = match reply {
                    Ok(Frame::ControlReply { reply }) => reply,
                    other => panic!("{to} answered {other:?}"),
                };
                let line = format!("reply {} ", now.as_nanos());
                wire.trace.extend_from_slice(line.as_bytes());
                let frame = Frame::ControlReply {
                    reply: reply.clone(),
                };
                encode_envelope(&Envelope::response(corr, frame), &mut wire.trace);
                wire.trace.push(b'\n');
                replies.insert(corr, (now, reply));
            }
        }
        corrs
            .iter()
            .map(|c| replies.remove(c).expect("answered"))
            .collect()
    }

    /// One op to fedd, and its reply.
    pub fn op(&mut self, op: ControlOp) -> ControlReply {
        self.ask(FEDD, vec![op]).remove(0).1
    }

    /// A counter of pod `i`'s registry.
    pub fn pod_counter(&self, i: usize, name: &str) -> u64 {
        let pods = self.pods.borrow();
        pods[i].core.telemetry().snapshot().counter(name)
    }

    pub fn fedd_snapshot(&self) -> Snapshot {
        self.fedd.core.telemetry().snapshot()
    }

    /// A counter of fedd's registry.
    pub fn fedd_counter(&self, name: &str) -> u64 {
        self.fedd.core.telemetry().snapshot().counter(name)
    }

    /// Cuts pod `i` off, or heals it.
    pub fn cut(&mut self, i: usize, cut: bool) {
        let faults = &mut self.wire.borrow_mut().faults;
        if cut {
            faults.cut.insert(pod_addr(i));
        } else {
            faults.cut.remove(&pod_addr(i));
        }
    }
}
