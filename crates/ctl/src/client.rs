//! Client library for the farmd control surface, used by farmctl and
//! by integration tests.

use std::net::SocketAddr;
use std::time::Duration;

use farm_net::{Connection, ControlOp, ControlReply, Frame, NetConfig, NetError};
use farm_telemetry::Telemetry;

/// A control-plane session with one farmd instance.
pub struct CtlClient {
    conn: Connection,
    // Keeps the connection's counters alive for the session.
    _telemetry: Telemetry,
}

impl CtlClient {
    /// A session under the name `farmctl` with a ten-second request
    /// deadline. Nothing is dialed until the first op (or
    /// [`CtlClient::wait_connected`]); a session the daemon ended is
    /// redialed by the next op, so one client outlives daemon restarts.
    pub fn connect(addr: SocketAddr) -> CtlClient {
        CtlClient::connect_as(addr, "farmctl", Duration::from_secs(10))
    }

    /// Connects under a caller-chosen node name and request timeout,
    /// so the peer is identifiable in `Hello` frames and audit events.
    pub fn connect_as(addr: SocketAddr, node: &str, request_timeout: Duration) -> CtlClient {
        let telemetry = Telemetry::new();
        let cfg = NetConfig {
            node: node.into(),
            request_timeout,
        };
        let conn = Connection::connect(addr, cfg, &telemetry);
        CtlClient {
            conn,
            _telemetry: telemetry,
        }
    }

    /// Dials until a session is up (or the timeout passes); `true`
    /// when connected.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        self.conn.wait_connected(timeout)
    }

    /// Sends one control op and decodes the reply.
    ///
    /// # Errors
    ///
    /// Transport failures as [`NetError`]; a server-side [`Frame::Error`]
    /// surfaces as [`NetError::Rejected`]. A non-control reply frame
    /// (protocol confusion) is reported as a rejection too.
    pub fn op(&self, op: ControlOp) -> Result<ControlReply, NetError> {
        match self.conn.request(Frame::Control { op })? {
            Frame::ControlReply { reply } => Ok(reply),
            other => Err(NetError::Rejected(format!(
                "farmd answered with a non-control frame: {other:?}"
            ))),
        }
    }
}
