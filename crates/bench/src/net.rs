//! Transport at scale (beyond the paper): a real `NetServer` event loop
//! on loopback, thousands of concurrent client connections, and what
//! the FARM control plane cares about — RPC round-trip latency while a
//! mostly idle fleet stays connected, pipelined frame throughput, and
//! how many connections the loop actually holds (read back from the
//! `net.server_conns` gauge). The sweep crosses connection count with
//! the message rate: each chatty connection pipelines `burst` requests
//! before draining, `burst = 1` being strict request/response.
//!
//! Each connection costs two descriptors (client and accepted side live
//! in this process). The sweep raises the soft `RLIMIT_NOFILE` where the
//! hard limit allows, and refuses to start where it cannot.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_net::{encode_envelope, Decoded, Envelope, Frame, FrameDecoder, NetServer};
use farm_telemetry::Telemetry;

use crate::support::percentile;

/// Connection counts, bursts, requests per chatty connection.
type Sweep = (&'static [usize], &'static [usize], usize);

/// Quick mode.
pub const QUICK: Sweep = (&[256], &[1, 64], 20);
/// The full sweep: 2 048 connections and a 256-deep pipeline.
pub const FULL: Sweep = (&[256, 2_048], &[1, 64, 256], 50);

/// Spare descriptors left for the listener, the poller and stdio.
const FD_HEADROOM: u64 = 64;

/// Tries to make `need` descriptors available; returns the soft limit in
/// force afterwards. Declared against the libc every Rust binary already
/// links (same idiom as `farm_net::poll`).
#[cfg(unix)]
fn ensure_fds(need: u64) -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: plain out-pointer syscall wrapper on a stack value.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return need; // cannot even probe: proceed optimistically
    }
    if lim.cur >= need {
        return lim.cur;
    }
    let want = Rlimit {
        cur: need.min(lim.max),
        max: lim.max,
    };
    // SAFETY: raises the soft limit within the hard limit.
    if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
        return want.cur;
    }
    lim.cur
}

#[cfg(not(unix))]
fn ensure_fds(need: u64) -> u64 {
    need
}

/// One point of the sweep.
#[derive(Debug)]
pub struct NetRow {
    pub conns: usize,
    pub chatty: usize,
    pub burst: usize,
    /// Sequential RPC round trip, [p50, p99].
    pub rpc_us: [f64; 2],
    pub frames_per_sec: f64,
    pub bytes_per_sec: f64,
    /// The `net.server_conns` high-water mark.
    pub held: usize,
}

/// A blocking client socket with its own incremental decoder.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    fn send(&mut self, corr: u64) -> std::io::Result<()> {
        let frame = Frame::Heartbeat {
            switch: 1,
            seq: corr,
            at_ns: 0,
        };
        let mut buf = Vec::with_capacity(32);
        let env = Envelope {
            corr,
            response: false,
            frame,
        };
        encode_envelope(&env, &mut buf);
        self.stream.write_all(&buf)
    }

    /// Reads until `expect` responses arrived.
    fn drain(&mut self, expect: usize) -> std::io::Result<()> {
        let mut seen = 0;
        let mut chunk = [0u8; 4096];
        while seen < expect {
            match self.decoder.next()? {
                Some(Decoded::Frame(env, _)) => seen += usize::from(env.response),
                Some(Decoded::Bad { .. }) => return Err(std::io::ErrorKind::InvalidData.into()),
                None => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    self.decoder.extend(&chunk[..n]);
                }
            }
        }
        Ok(())
    }
}

/// Waits for the connection gauge to reach `want`; returns the highest
/// value seen before the deadline.
fn await_gauge(telemetry: &Telemetry, want: f64) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen: f64 = 0.0;
    loop {
        let now = telemetry.snapshot().gauge("net.server_conns");
        seen = seen.max(now.unwrap_or(0.0));
        if seen >= want || Instant::now() > deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Ramps `conns` connections against a fresh server, times `iters`
/// sequential RPCs per chatty connection, then `iters` pipelined
/// requests per chatty connection in bursts of `burst`.
fn point(conns: usize, burst: usize, iters: usize) -> std::io::Result<NetRow> {
    let chatty = conns.min(64);
    let telemetry = Telemetry::new();
    let handler = Arc::new(|env: &Envelope| Some(env.frame.clone()));
    let mut server = NetServer::bind(([127, 0, 0, 1], 0).into(), &telemetry, handler)?;
    let addr = server.local_addr();

    let mut chatters = (0..chatty)
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut idle = Vec::with_capacity(conns - chatty);
    for i in 0..conns - chatty {
        idle.push(TcpStream::connect(addr)?);
        if i % 256 == 255 {
            // Let the accept loop keep pace with the ramp.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let held = await_gauge(&telemetry, conns as f64) as usize;

    let mut rpc_us = Vec::with_capacity(chatty * iters);
    let mut corr = 1u64;
    for _ in 0..iters {
        for c in &mut chatters {
            let t = Instant::now();
            c.send(corr)?;
            c.drain(1)?;
            rpc_us.push(t.elapsed().as_secs_f64() * 1e6);
            corr += 1;
        }
    }

    // Frame and byte totals come from the server's own counters, both
    // directions, as the event loop accounted them.
    let before = telemetry.snapshot();
    let start = Instant::now();
    for _ in 0..iters.div_ceil(burst) {
        for c in &mut chatters {
            for _ in 0..burst {
                c.send(corr)?;
                corr += 1;
            }
        }
        for c in &mut chatters {
            c.drain(burst)?;
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let after = telemetry.snapshot();
    let delta = |name| after.counter(name) - before.counter(name);
    let frames = delta("net.frames_received") + delta("net.frames_sent");

    drop(idle);
    drop(chatters);
    server.shutdown();
    Ok(NetRow {
        conns,
        chatty,
        burst,
        rpc_us: [percentile(&rpc_us, 0.50), percentile(&rpc_us, 0.99)],
        frames_per_sec: frames as f64 / secs,
        bytes_per_sec: delta("net.bytes") as f64 / secs,
        held,
    })
}

/// Runs every (connection count, burst) point of the sweep.
pub fn run(conns: &[usize], bursts: &[usize], iters: usize) -> Result<Vec<NetRow>, String> {
    let most = conns.iter().max().map_or(0, |&n| n as u64);
    let need = most * 2 + FD_HEADROOM;
    let avail = ensure_fds(need);
    if avail < need {
        return Err(format!(
            "RLIMIT_NOFILE {avail} cannot hold {most} connections (need {need})"
        ));
    }
    let mut rows = Vec::new();
    for &conns in conns {
        for &burst in bursts {
            let row = point(conns, burst, iters)
                .map_err(|e| format!("{conns} connections, burst {burst}: {e}"))?;
            rows.push(row);
        }
    }
    Ok(rows)
}
