//! The accepting side of the transport: the public surface
//! ([`NetServer`], [`FrameHandler`]) over a readiness-polling event-loop
//! server (the crate-private `reactor` module). farmd, fedd and the
//! remote-harvester example all listen through it.
//!
//! One reactor thread multiplexes every session over the [`Poller`]
//! abstraction; frames are decoded incrementally off a growable ring
//! and handed to the [`FrameHandler`] on a sticky worker pool (frames
//! from one connection always hit the same worker, preserving arrival
//! order), so a handler that blocks never stalls the event loop.
//!
//! [`Poller`]: crate::poll::Poller

use std::net::SocketAddr;
use std::sync::Arc;

use farm_telemetry::Telemetry;

use crate::frame::{Envelope, Frame};

/// Server-side frame dispatch. Called once per inbound frame from a
/// worker thread; frames from one connection arrive in order, frames
/// from different connections call concurrently.
///
/// Return `Some(frame)` to answer a request; `None` defers to the
/// default `Ack` for requests and is ignored for one-way frames.
pub trait FrameHandler: Send + Sync {
    fn handle(&self, env: &Envelope) -> Option<Frame>;
}

impl<F> FrameHandler for F
where
    F: Fn(&Envelope) -> Option<Frame> + Send + Sync,
{
    fn handle(&self, env: &Envelope) -> Option<Frame> {
        self(env)
    }
}

/// A listening endpoint: one event-loop thread serves every client.
pub struct NetServer {
    local_addr: SocketAddr,
    #[cfg(unix)]
    inner: crate::reactor::ReactorHandle,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`local_addr`](Self::local_addr)) and starts the event loop.
    ///
    /// On targets without a readiness poller (non-unix) this fails with
    /// [`std::io::ErrorKind::Unsupported`]; the blocking client side of
    /// the crate still works there.
    pub fn bind(
        addr: SocketAddr,
        telemetry: &Telemetry,
        handler: Arc<dyn FrameHandler>,
    ) -> std::io::Result<NetServer> {
        #[cfg(unix)]
        {
            let inner = crate::reactor::spawn(addr, telemetry, handler)?;
            Ok(NetServer {
                local_addr: inner.local_addr(),
                inner,
            })
        }
        #[cfg(not(unix))]
        {
            let _ = (addr, telemetry, handler);
            Err(std::io::ErrorKind::Unsupported.into())
        }
    }

    /// The bound address — the port actually chosen when binding :0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the event loop, severs open sessions, joins every thread.
    pub fn shutdown(&mut self) {
        #[cfg(unix)]
        self.inner.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
