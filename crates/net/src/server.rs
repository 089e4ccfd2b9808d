//! The accepting side of the transport for an owner that has no loop of
//! its own: [`NetServer`] is a [`Reactor`] plus the one thread that
//! turns it, calling a shared [`FrameHandler`]. The benches and the
//! tests listen through it; farmd and fedd turn their `Reactor`
//! themselves, on the thread that owns the core.
//!
//! [`Reactor`]: crate::reactor::Reactor

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use farm_telemetry::Telemetry;

use crate::frame::{Envelope, Frame};
use crate::{poll::WakeHandle, reactor::Reactor};

/// Server-side frame dispatch. Called once per inbound frame on the
/// thread that turns the reactor; frames of all connections in arrival
/// order, one at a time — a handler that blocks holds every session.
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

/// Longest wait of one turn, ms — the stop flag is rechecked at least
/// this often even if the wake is lost.
const POLL_TICK_MS: i32 = 50;

/// A listening endpoint: one event-loop thread serves every client.
pub struct NetServer {
    local_addr: SocketAddr,
    /// Set, then poked through the waker, to end the loop promptly.
    stop: Arc<AtomicBool>,
    wake: WakeHandle,
    /// The thread turning the reactor; `None` once shut down.
    turner: Option<thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`local_addr`](Self::local_addr)) and starts the event loop.
    pub fn bind(
        addr: SocketAddr,
        telemetry: &Telemetry,
        handler: Arc<dyn FrameHandler>,
    ) -> std::io::Result<NetServer> {
        let mut reactor = Reactor::bind(addr, telemetry)?;
        let local_addr = reactor.local_addr();
        let wake = reactor.wake_handle()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let turner = thread::Builder::new()
            .name("farm-net-reactor".into())
            .spawn(move || {
                // Dropping the reactor on the way out severs every
                // session, so blocked client RPCs fail fast.
                while !stopped.load(Ordering::Relaxed)
                    && reactor
                        .turn(POLL_TICK_MS, &mut |env| handler.handle(env))
                        .is_ok()
                {}
            })?;
        Ok(NetServer {
            local_addr,
            stop,
            wake,
            turner: Some(turner),
        })
    }

    /// The bound address — the port actually chosen when binding :0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the event loop, severs open sessions, joins its thread.
    pub fn shutdown(&mut self) {
        if let Some(turner) = self.turner.take() {
            self.stop.store(true, Ordering::Relaxed);
            self.wake.wake();
            let _ = turner.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
