//! TCP client objects: the splice between a state machine and its socket.
//!
//! The paper splices the internal connection (terminated by the state
//! machine) and the external connection (a regular socket) by creating a *TCP
//! client object* that wraps the socket instance and holds a reference to the
//! state machine, while the state machine holds a reference back to the
//! client (§2.3, "two-way referencing"). In Rust the same splice is expressed
//! by ownership: the engine's flow table holds, per flow, the external
//! socket and the [`TcpClient`], which owns its [`TcpStateMachine`]. That
//! table is also the "cached TCP client list" the paper removes clients
//! from on RST.

use mop_packet::FourTuple;

use crate::machine::TcpStateMachine;
use crate::recovery::RecoveryState;
use crate::state::TcpState;
use crate::timer::ConnTimers;

/// Identifier of the external socket a UDP association relays into. This mirrors
/// `mop_simnet::SocketId` without introducing a dependency on the simulator,
/// so the stack stays usable against a real socket backend.
pub type ExternalSocketHandle = u64;

/// One spliced connection: the app-side state machine plus the
/// per-connection bookkeeping the engine needs.
#[derive(Debug)]
pub struct TcpClient {
    machine: TcpStateMachine,
    /// Nanosecond timestamp just before `connect()` was invoked.
    pub connect_started_ns: Option<u64>,
    /// Nanosecond timestamp just after `connect()` returned.
    pub connect_finished_ns: Option<u64>,
    /// The connection's armed timers (idle timeout and retransmission),
    /// stored as opaque cancellable tokens of the engine's scheduler.
    pub timers: ConnTimers,
    /// Loss-recovery state (RTT estimation, in-flight tracking, congestion
    /// control). `None` on networks where no data-path fault can fire, so
    /// clean runs carry no recovery bookkeeping at all.
    pub recovery: Option<RecoveryState>,
}

impl TcpClient {
    /// Creates a client for `flow` with the given initial sequence number
    /// towards the app.
    pub fn new(flow: FourTuple, our_isn: u32) -> Self {
        Self {
            machine: TcpStateMachine::new(flow, our_isn),
            connect_started_ns: None,
            connect_finished_ns: None,
            timers: ConnTimers::new(),
            recovery: None,
        }
    }

    /// The state machine (immutable).
    pub fn machine(&self) -> &TcpStateMachine {
        &self.machine
    }

    /// The state machine (mutable) — the engine drives it through this.
    pub fn machine_mut(&mut self) -> &mut TcpStateMachine {
        &mut self.machine
    }

    /// The state of the internal connection.
    pub fn state(&self) -> TcpState {
        self.machine.state()
    }

    /// The measured connect duration in nanoseconds, when both timestamps are
    /// present. This is the per-app RTT sample MopEye reports.
    pub fn connect_duration_ns(&self) -> Option<u64> {
        Some(self.connect_finished_ns?.saturating_sub(self.connect_started_ns?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(31, 13, 79, 251, 443))
    }

    #[test]
    fn connect_duration_requires_both_timestamps() {
        let mut c = TcpClient::new(flow(9), 1);
        assert_eq!(c.connect_duration_ns(), None);
        c.connect_started_ns = Some(1_000_000);
        assert_eq!(c.connect_duration_ns(), None);
        c.connect_finished_ns = Some(5_000_000);
        assert_eq!(c.connect_duration_ns(), Some(4_000_000));
    }
}
