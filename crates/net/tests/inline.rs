//! What serving frames inline — on the thread that turns the reactor —
//! must not break: a reply far larger than the kernel takes in one
//! write still arrives whole while other sessions are served, and a
//! handler that holds the loop delays other connections' frames without
//! losing or reordering any.
#![cfg(unix)]

use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use farm_net::{
    encode_envelope, Connection, ControlOp, ControlReply, Decoded, Envelope, Frame, FrameDecoder,
    NetConfig, NetServer, Reactor,
};
use farm_telemetry::Telemetry;

/// Larger than `OUTBUF_HIGH_WATER` (4 MiB) and than what a loopback
/// socket pair buffers unread, under the 16 MiB frame cap.
const BODY_LEN: usize = 12 << 20;

fn heartbeat(switch: u32, seq: u64) -> Frame {
    Frame::Heartbeat {
        switch,
        seq,
        at_ns: 0,
    }
}

fn write_request(stream: &mut TcpStream, corr: u64, frame: Frame) {
    let mut bytes = Vec::new();
    encode_envelope(&Envelope::request(corr, frame), &mut bytes);
    stream.write_all(&bytes).expect("loopback write");
}

/// Turns until `done` holds; every turn waits for readiness, so this
/// spins only while there is something to do.
fn turn_until(
    reactor: &mut Reactor,
    handler: &mut dyn FnMut(&Envelope) -> Option<Frame>,
    mut done: impl FnMut(&Reactor) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done(reactor) {
        assert!(Instant::now() < deadline, "the reactor made no progress");
        reactor.turn(50, handler).expect("turn");
    }
}

/// One blocking request/response on a raw socket, the reactor turned by
/// this same thread in between.
fn echo_round(
    reactor: &mut Reactor,
    handler: &mut dyn FnMut(&Envelope) -> Option<Frame>,
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    seq: u64,
) {
    write_request(stream, seq + 1, heartbeat(2, seq));
    let mut buf = [0u8; 256];
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "beat {seq} was never echoed");
        reactor.turn(50, handler).expect("turn");
        match stream.read(&mut buf) {
            Ok(n) => decoder.extend(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) => panic!("echo read: {e}"),
        }
        if let Some(Decoded::Frame(env, _)) = decoder.next().expect("framing") {
            assert_eq!(env.corr, seq + 1);
            assert_eq!(env.frame, heartbeat(2, seq + 1), "echo of beat {seq}");
            return;
        }
    }
}

#[test]
fn a_reply_larger_than_every_buffer_arrives_whole_while_another_session_is_served() {
    let body: String = (0..BODY_LEN / 8).map(|i| format!("{i:07x}\n")).collect();
    let telemetry = Telemetry::new();
    let mut reactor =
        Reactor::bind("127.0.0.1:0".parse().expect("loopback parses"), &telemetry).expect("bind");
    let handled = Cell::new(0u32);
    let mut handler = |env: &Envelope| match &env.frame {
        Frame::Control { .. } => {
            handled.set(handled.get() + 1);
            Some(Frame::ControlReply {
                reply: ControlReply::Json { body: body.clone() },
            })
        }
        Frame::Heartbeat { switch, seq, at_ns } => Some(Frame::Heartbeat {
            switch: *switch,
            seq: seq + 1,
            at_ns: *at_ns,
        }),
        _ => None,
    };

    // A asks for the big document and does not read yet.
    let mut a = TcpStream::connect(reactor.local_addr()).expect("dial a");
    write_request(
        &mut a,
        7,
        Frame::Control {
            op: ControlOp::MetricsDump,
        },
    );
    turn_until(&mut reactor, &mut handler, |_| handled.get() == 1);
    assert!(
        !reactor.flushed(),
        "a {BODY_LEN}-byte reply left in one write: this host's socket buffers are larger \
         than the test assumes, raise BODY_LEN"
    );

    // B is served while A's tail waits for A to read.
    let mut b = TcpStream::connect(reactor.local_addr()).expect("dial b");
    b.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut b_decoder = FrameDecoder::new();
    for seq in 0..8 {
        echo_round(&mut reactor, &mut handler, &mut b, &mut b_decoder, seq);
    }
    assert!(!reactor.flushed(), "nobody read A's reply yet");

    // A drains in small reads, the reactor turned (and B served) between
    // them; the reply is one frame, byte for byte the document.
    a.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut a_decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut reads = 0u64;
    let reply = loop {
        reactor.turn(0, &mut handler).expect("turn");
        let n = a.read(&mut chunk).expect("a reads its reply");
        assert!(n > 0, "the server hung up mid-reply");
        a_decoder.extend(&chunk[..n]);
        reads += 1;
        if reads.is_multiple_of(16) {
            echo_round(
                &mut reactor,
                &mut handler,
                &mut b,
                &mut b_decoder,
                100 + reads,
            );
        }
        if let Some(decoded) = a_decoder.next().expect("framing") {
            break decoded;
        }
    };
    let Decoded::Frame(env, _) = reply else {
        panic!("the big reply did not decode");
    };
    assert_eq!((env.corr, env.response), (7, true));
    let Frame::ControlReply {
        reply: ControlReply::Json { body: got },
    } = env.frame
    else {
        panic!("not the document: {:?}", env.frame.kind());
    };
    assert!(got == body, "the document arrived altered");
    assert_eq!(a_decoder.buffered(), 0, "nothing follows the one reply");

    // Reading A was paused above the high-water mark; it has resumed.
    turn_until(&mut reactor, &mut handler, Reactor::flushed);
    a.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    echo_round(&mut reactor, &mut handler, &mut a, &mut a_decoder, 500);
    assert_eq!(handled.get(), 1);
}

/// `at_ns` of the one frame the handler dwells on.
const SLOW: u64 = 1;
const BEACONS: u64 = 500;
/// `seq` logged when the slow frame's handler returns.
const DONE: u64 = u64::MAX;

#[test]
fn a_handler_that_holds_the_loop_delays_other_connections_without_loss_or_reorder() {
    let telemetry = Telemetry::new();
    let seen = Arc::new(Mutex::new(Vec::<(u32, u64)>::new()));
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let server = {
        let seen = Arc::clone(&seen);
        let entered_tx = Mutex::new(entered_tx);
        NetServer::bind(
            "127.0.0.1:0".parse().expect("loopback parses"),
            &telemetry,
            Arc::new(move |env: &Envelope| {
                let Frame::Heartbeat { switch, seq, at_ns } = env.frame else {
                    return None;
                };
                seen.lock().expect("handler panicked").push((switch, seq));
                if at_ns == SLOW {
                    let _ = entered_tx.lock().expect("handler panicked").send(());
                    std::thread::sleep(Duration::from_millis(50));
                    seen.lock().expect("handler panicked").push((switch, DONE));
                }
                Some(heartbeat(switch, seq + 1))
            }),
        )
        .expect("bind")
    };
    let a = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
    let b = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
    // Both sessions are up before A's slow frame goes out.
    assert_eq!(a.request(heartbeat(1, 0)), Ok(heartbeat(1, 1)));
    assert_eq!(b.request(heartbeat(2, 0)), Ok(heartbeat(2, 1)));

    std::thread::scope(|scope| {
        let slow = scope.spawn(|| {
            a.request(Frame::Heartbeat {
                switch: 1,
                seq: 1,
                at_ns: SLOW,
            })
        });
        // The handler is inside A's frame: B writes behind it.
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the slow frame reached the handler");
        for seq in 1..=BEACONS {
            b.send(heartbeat(2, seq)).expect("loopback send");
        }
        assert_eq!(
            b.request(heartbeat(2, BEACONS + 1)),
            Ok(heartbeat(2, BEACONS + 2))
        );
        assert_eq!(slow.join().expect("a's thread"), Ok(heartbeat(1, 2)));
    });
    assert_eq!(a.request(heartbeat(1, 2)), Ok(heartbeat(1, 3)));

    let seen = seen.lock().expect("handler panicked").clone();
    let of = |switch: u32| -> Vec<u64> {
        seen.iter()
            .filter(|(s, _)| *s == switch)
            .map(|(_, seq)| *seq)
            .collect()
    };
    assert_eq!(of(1), [0, 1, DONE, 2], "A's frames, in order");
    assert_eq!(
        of(2),
        (0..=BEACONS + 1).collect::<Vec<_>>(),
        "B's frames: none lost, none reordered"
    );
    let done_at = seen.iter().position(|e| *e == (1, DONE)).expect("logged");
    let b_behind = seen.iter().position(|e| *e == (2, 1)).expect("logged");
    assert!(
        done_at < b_behind,
        "B's frames written during A's handler were handled after it"
    );
}

#[test]
fn utilisation_is_the_busy_share_of_the_last_turn() {
    let telemetry = Telemetry::new();
    let mut reactor =
        Reactor::bind("127.0.0.1:0".parse().expect("addr"), &telemetry).expect("bind");
    let utilisation = || {
        let share = telemetry.snapshot().gauge("net.reactor_utilisation");
        let share = share.expect("set by every turn");
        assert!((0.0..=1.0).contains(&share), "{share}");
        share
    };
    // Idle: the turn is all wait.
    reactor.turn(20, &mut |_| None).expect("turn");
    assert!(utilisation() < 0.5, "{}", utilisation());
    // A handler that holds the turn: it is all work.
    let mut stream = TcpStream::connect(reactor.local_addr()).expect("dial");
    write_request(&mut stream, 1, heartbeat(0, 0));
    let handled = Cell::new(false);
    let mut slow = |_: &Envelope| {
        std::thread::sleep(Duration::from_millis(30));
        handled.set(true);
        None
    };
    turn_until(&mut reactor, &mut slow, |_| handled.get());
    assert!(utilisation() > 0.5, "{}", utilisation());
    reactor.turn(20, &mut |_| None).expect("turn");
    assert!(utilisation() < 0.5, "{}", utilisation());
}
