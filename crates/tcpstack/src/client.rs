//! TCP client objects and the connection registry.
//!
//! The paper splices the internal connection (terminated by the state
//! machine) and the external connection (a regular socket) by creating a *TCP
//! client object* that wraps the socket instance and holds a reference to the
//! state machine, while the state machine holds a reference back to the
//! client (§2.3, "two-way referencing"). In Rust the same splice is expressed
//! by ownership: the [`TcpClient`] owns its [`TcpStateMachine`] and records
//! the identifier of its external socket; the [`ClientRegistry`] is the
//! "cached TCP client list" the paper removes clients from on RST.

use mop_packet::{FlowMap, FourTuple};

use crate::machine::TcpStateMachine;
use crate::recovery::RecoveryState;
use crate::state::TcpState;
use crate::timer::ConnTimers;

/// Identifier of the external socket a client relays into. This mirrors
/// `mop_simnet::SocketId` without introducing a dependency on the simulator,
/// so the stack stays usable against a real socket backend.
pub type ExternalSocketHandle = u64;

/// One spliced connection: the app-side state machine plus the external
/// socket handle and the per-connection bookkeeping the engine needs.
#[derive(Debug)]
pub struct TcpClient {
    machine: TcpStateMachine,
    external: Option<ExternalSocketHandle>,
    /// UID of the owning app, filled in by the (lazy) packet-to-app mapper.
    pub app_uid: Option<u32>,
    /// Package name of the owning app, resolved from the UID.
    pub app_package: Option<String>,
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
            external: None,
            app_uid: None,
            app_package: None,
            connect_started_ns: None,
            connect_finished_ns: None,
            timers: ConnTimers::new(),
            recovery: None,
        }
    }

    /// The connection four-tuple.
    pub fn flow(&self) -> FourTuple {
        self.machine.flow()
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

    /// Binds the external socket handle once the socket has been created.
    pub fn attach_external(&mut self, handle: ExternalSocketHandle) {
        self.external = Some(handle);
    }

    /// The external socket handle, if one has been attached.
    pub fn external(&self) -> Option<ExternalSocketHandle> {
        self.external
    }

    /// The measured connect duration in nanoseconds, when both timestamps are
    /// present. This is the per-app RTT sample MopEye reports.
    pub fn connect_duration_ns(&self) -> Option<u64> {
        Some(self.connect_finished_ns?.saturating_sub(self.connect_started_ns?))
    }

    /// True once the app has been identified (the lazy mapper has run).
    pub fn is_mapped(&self) -> bool {
        self.app_uid.is_some()
    }
}

/// The cached TCP client list, keyed by four-tuple.
#[derive(Debug, Default)]
pub struct ClientRegistry {
    clients: FlowMap<FourTuple, TcpClient>,
    isn_counter: u32,
    created_total: u64,
    removed_total: u64,
}

impl ClientRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            clients: FlowMap::default(),
            isn_counter: 0x1000,
            created_total: 0,
            removed_total: 0,
        }
    }

    /// Creates an empty registry with room for `capacity` concurrent clients,
    /// so a shard expecting a known fleet share pays its table growth up
    /// front instead of on the packet path.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            clients: FlowMap::with_capacity_and_hasher(capacity, Default::default()),
            isn_counter: 0x1000,
            created_total: 0,
            removed_total: 0,
        }
    }

    /// Resets the registry to its just-constructed state, keeping the table
    /// allocation: the ISN counter restarts so a reused registry hands out
    /// the same sequence numbers a fresh one would.
    pub fn reset(&mut self) {
        self.clients.clear();
        self.isn_counter = 0x1000;
        self.created_total = 0;
        self.removed_total = 0;
    }

    /// Returns the client for `flow`, creating it (with a fresh ISN) if absent.
    pub fn get_or_create(&mut self, flow: FourTuple) -> &mut TcpClient {
        if !self.clients.contains_key(&flow) {
            self.isn_counter = self.isn_counter.wrapping_add(0x01_0000);
            self.created_total += 1;
            self.clients.insert(flow, TcpClient::new(flow, self.isn_counter));
        }
        self.clients.get_mut(&flow).expect("just inserted")
    }

    /// Looks up an existing client.
    pub fn get(&self, flow: FourTuple) -> Option<&TcpClient> {
        self.clients.get(&flow)
    }

    /// Looks up an existing client mutably.
    pub fn get_mut(&mut self, flow: FourTuple) -> Option<&mut TcpClient> {
        self.clients.get_mut(&flow)
    }

    /// Finds the client using the given external socket handle.
    pub fn find_by_external(&mut self, handle: ExternalSocketHandle) -> Option<&mut TcpClient> {
        self.clients.values_mut().find(|c| c.external() == Some(handle))
    }

    /// Removes the client for `flow` (the RST / teardown path).
    pub fn remove(&mut self, flow: FourTuple) -> Option<TcpClient> {
        let removed = self.clients.remove(&flow);
        if removed.is_some() {
            self.removed_total += 1;
        }
        removed
    }

    /// Removes every client whose connection has reached a terminal state.
    /// Returns how many were removed.
    pub fn sweep_terminal(&mut self) -> usize {
        let before = self.clients.len();
        self.clients.retain(|_, c| !c.state().is_terminal());
        let removed = before - self.clients.len();
        self.removed_total += removed as u64;
        removed
    }

    /// Number of live clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True if no clients are live.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Total clients ever created.
    pub fn created_total(&self) -> u64 {
        self.created_total
    }

    /// Total clients removed.
    pub fn removed_total(&self) -> u64 {
        self.removed_total
    }

    /// Iterates over live clients.
    pub fn iter(&self) -> impl Iterator<Item = (&FourTuple, &TcpClient)> {
        self.clients.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::{Endpoint, PacketBuilder};

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(31, 13, 79, 251, 443))
    }

    #[test]
    fn get_or_create_is_idempotent_per_flow() {
        let mut reg = ClientRegistry::new();
        let isn_a = {
            let c = reg.get_or_create(flow(1));
            c.attach_external(77);
            c.machine().state()
        };
        assert_eq!(isn_a, TcpState::Listen);
        assert_eq!(reg.len(), 1);
        // Second lookup returns the same client (external handle persists).
        assert_eq!(reg.get_or_create(flow(1)).external(), Some(77));
        assert_eq!(reg.created_total(), 1);
        reg.get_or_create(flow(2));
        assert_eq!(reg.created_total(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn distinct_flows_get_distinct_isns() {
        let mut reg = ClientRegistry::new();
        let a = reg.get_or_create(flow(1)).machine().state();
        let b = reg.get_or_create(flow(2)).machine().state();
        assert_eq!(a, b); // Both Listen; ISNs are internal, just ensure no panic.
        assert_ne!(flow(1), flow(2));
    }

    #[test]
    fn connect_duration_requires_both_timestamps() {
        let mut c = TcpClient::new(flow(9), 1);
        assert_eq!(c.connect_duration_ns(), None);
        c.connect_started_ns = Some(1_000_000);
        assert_eq!(c.connect_duration_ns(), None);
        c.connect_finished_ns = Some(5_000_000);
        assert_eq!(c.connect_duration_ns(), Some(4_000_000));
        assert!(!c.is_mapped());
        c.app_uid = Some(10123);
        c.app_package = Some("com.whatsapp".into());
        assert!(c.is_mapped());
    }

    #[test]
    fn find_by_external_locates_the_right_client() {
        let mut reg = ClientRegistry::new();
        reg.get_or_create(flow(1)).attach_external(100);
        reg.get_or_create(flow(2)).attach_external(200);
        assert_eq!(reg.find_by_external(200).unwrap().flow(), flow(2));
        assert!(reg.find_by_external(999).is_none());
    }

    #[test]
    fn remove_and_sweep() {
        let mut reg = ClientRegistry::new();
        reg.get_or_create(flow(1));
        reg.get_or_create(flow(2));
        assert!(reg.remove(flow(1)).is_some());
        assert!(reg.remove(flow(1)).is_none());
        assert_eq!(reg.removed_total(), 1);
        // Drive the second client to a terminal state and sweep it.
        {
            let c = reg.get_or_create(flow(2));
            let rst = PacketBuilder::new(flow(2).src, flow(2).dst).tcp_rst(1);
            c.machine_mut().on_tunnel_segment(rst.tcp().unwrap());
            assert!(c.state().is_terminal());
        }
        assert_eq!(reg.sweep_terminal(), 1);
        assert!(reg.is_empty());
        assert_eq!(reg.removed_total(), 2);
        assert_eq!(reg.iter().count(), 0);
    }
}
