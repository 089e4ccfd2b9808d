//! The cached telemetry instruments of the `net.*` namespace, shared by
//! client connections and the server.

use std::sync::Arc;

use farm_telemetry::{Counter, Histogram, Telemetry};

/// Cached handles for the `net.*` instruments so the per-frame hot
/// path never takes the registry lock.
#[derive(Clone)]
pub(crate) struct NetCounters {
    /// Octets this endpoint moved on the wire, both directions.
    pub(crate) bytes: Arc<Counter>,
    pub(crate) frames_sent: Arc<Counter>,
    pub(crate) frames_received: Arc<Counter>,
    pub(crate) connects: Arc<Counter>,
    pub(crate) reconnects: Arc<Counter>,
    pub(crate) connect_failures: Arc<Counter>,
    pub(crate) rpcs: Arc<Counter>,
    pub(crate) rpc_timeouts: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    /// Request → response round-trip, microseconds (real time).
    pub(crate) rpc_latency_us: Arc<Histogram>,
}

impl NetCounters {
    pub(crate) fn new(telemetry: &Telemetry) -> NetCounters {
        NetCounters {
            bytes: telemetry.counter("net.bytes"),
            frames_sent: telemetry.counter("net.frames_sent"),
            frames_received: telemetry.counter("net.frames_received"),
            connects: telemetry.counter("net.connects"),
            reconnects: telemetry.counter("net.reconnects"),
            connect_failures: telemetry.counter("net.connect_failures"),
            rpcs: telemetry.counter("net.rpcs"),
            rpc_timeouts: telemetry.counter("net.rpc_timeouts"),
            decode_errors: telemetry.counter("net.decode_errors"),
            rpc_latency_us: telemetry.latency_histogram("net.rpc_latency_us"),
        }
    }
}

/// Longest a dial may stay in flight before it counts as failed.
pub(crate) const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);

/// Starts a TCP dial to `addr` without waiting for it: the socket comes
/// back non-blocking, and its first writable (or error) readiness says
/// how the dial went (`TcpStream::take_error`).
#[cfg(target_os = "linux")]
pub(crate) fn dial(addr: &std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    use std::net::SocketAddr;
    use std::os::raw::c_int;
    use std::os::unix::io::FromRawFd;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINPROGRESS: i32 = 115;

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
    }

    // `struct sockaddr_in` / `sockaddr_in6`, laid out by hand: family in
    // host order, port and address in network order.
    let mut raw = Vec::with_capacity(28);
    let family = match addr {
        SocketAddr::V4(a) => {
            raw.extend_from_slice(&AF_INET.to_ne_bytes());
            raw.extend_from_slice(&a.port().to_be_bytes());
            raw.extend_from_slice(&a.ip().octets());
            raw.extend_from_slice(&[0; 8]);
            AF_INET
        }
        SocketAddr::V6(a) => {
            raw.extend_from_slice(&AF_INET6.to_ne_bytes());
            raw.extend_from_slice(&a.port().to_be_bytes());
            raw.extend_from_slice(&a.flowinfo().to_be_bytes());
            raw.extend_from_slice(&a.ip().octets());
            raw.extend_from_slice(&a.scope_id().to_ne_bytes());
            AF_INET6
        }
    };
    // SAFETY: `socket` takes no pointers; a negative result is checked.
    let fd = unsafe {
        socket(
            c_int::from(family),
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: `fd` is a socket this function just opened and owns; the
    // stream closes it on every path from here.
    let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
    // SAFETY: `fd` is the open socket `stream` owns, and `raw` is a
    // complete sockaddr of the length passed, alive for the call.
    if unsafe { connect(fd, raw.as_ptr(), raw.len() as u32) } == 0 {
        return Ok(stream);
    }
    let e = std::io::Error::last_os_error();
    if e.raw_os_error() == Some(EINPROGRESS) {
        Ok(stream)
    } else {
        Err(e)
    }
}

/// Elsewhere the dial is a blocking one, bounded by [`CONNECT_TIMEOUT`].
#[cfg(not(target_os = "linux"))]
pub(crate) fn dial(addr: &std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    let stream = std::net::TcpStream::connect_timeout(addr, CONNECT_TIMEOUT)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}
