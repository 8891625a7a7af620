//! The kernel's view of live connections, as exposed through `/proc/net`.

use std::net::IpAddr;

use mop_packet::{Endpoint, FlowMap, FourTuple};

/// Which pseudo file a connection appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// `/proc/net/tcp`.
    Tcp,
    /// `/proc/net/tcp6`.
    Tcp6,
    /// `/proc/net/udp`.
    Udp,
    /// `/proc/net/udp6`.
    Udp6,
}

impl Protocol {
    /// The pseudo-file name for this protocol.
    pub fn file_name(self) -> &'static str {
        match self {
            Protocol::Tcp => "tcp",
            Protocol::Tcp6 => "tcp6",
            Protocol::Udp => "udp",
            Protocol::Udp6 => "udp6",
        }
    }

    /// Classifies a flow into the right pseudo file.
    pub fn for_flow(flow: &FourTuple, tcp: bool) -> Self {
        match (tcp, flow.src.is_ipv4()) {
            (true, true) => Protocol::Tcp,
            (true, false) => Protocol::Tcp6,
            (false, true) => Protocol::Udp,
            (false, false) => Protocol::Udp6,
        }
    }
}

/// Kernel socket states as encoded in the `st` column of `/proc/net/tcp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketStateCode {
    /// 01: ESTABLISHED.
    Established,
    /// 02: SYN_SENT.
    SynSent,
    /// 06: TIME_WAIT.
    TimeWait,
    /// 07: CLOSE.
    Close,
    /// 0A: LISTEN.
    Listen,
}

impl SocketStateCode {
    /// The two-digit hexadecimal code used in the pseudo file.
    pub fn code(self) -> &'static str {
        match self {
            SocketStateCode::Established => "01",
            SocketStateCode::SynSent => "02",
            SocketStateCode::TimeWait => "06",
            SocketStateCode::Close => "07",
            SocketStateCode::Listen => "0A",
        }
    }

    /// Parses a two-digit code, defaulting to `Close` for unknown codes.
    pub fn from_code(code: &str) -> Self {
        match code {
            "01" => SocketStateCode::Established,
            "02" => SocketStateCode::SynSent,
            "06" => SocketStateCode::TimeWait,
            "0A" => SocketStateCode::Listen,
            _ => SocketStateCode::Close,
        }
    }
}

/// One row of a `/proc/net/*` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionEntry {
    /// Which pseudo file the row lives in.
    pub protocol: Protocol,
    /// Local (app-side) endpoint.
    pub local: Endpoint,
    /// Remote endpoint.
    pub remote: Endpoint,
    /// Kernel socket state.
    pub state: SocketStateCode,
    /// UID of the app that owns the socket.
    pub uid: u32,
    /// Kernel inode of the socket (unique per socket).
    pub inode: u64,
}

/// The live connection table, maintained by the simulated kernel as apps open
/// and close sockets.
///
/// Alongside the entry list (what `/proc/net` renders), the table maintains
/// an incremental `FourTuple → uid` index: every mutation updates the index
/// in O(1), so mapper lookups never rebuild anything. A generation counter
/// advances on every mutation that can change the flow → uid relation, which
/// lets snapshot holders (the lazy mapper) skip re-copying an index they
/// already have.
///
/// The entry list is an insertion-ordered slot vector with a four-tuple →
/// slots index, the same shape as the simnet `Selector`'s interest set:
/// `set_state` and `remove` touch only the matching slots, and `remove`
/// leaves tombstones that iteration skips, so rendering still visits live
/// entries in registration order. Slots are compacted in order once
/// tombstones outnumber live entries. The relay calls both on every connect
/// and every close, so a scan of the live set (about 1,360 entries per call
/// in a 1000-user rush hour) would make a run quadratic on the host.
#[derive(Debug, Default)]
pub struct ConnectionTable {
    /// Insertion-ordered slots; `None` marks a removed (tombstoned) entry.
    slots: Vec<Option<ConnectionEntry>>,
    /// Live slots per four-tuple, in registration order.
    positions: FlowMap<FourTuple, Vec<usize>>,
    tombstones: usize,
    next_inode: u64,
    /// Incrementally maintained flow → uid index (first registration wins,
    /// matching the entry-scan semantics of `uid_of`).
    uid_index: FlowMap<FourTuple, u32>,
    generation: u64,
    /// Gated instrumentation (written only under the `profiling` feature):
    /// `set_state`/`remove` calls, and slots they and compaction touched.
    lookups: u64,
    scan_elems: u64,
}

impl ConnectionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self { next_inode: 10_000, ..Self::default() }
    }

    /// Resets the table to its just-constructed state, keeping the entry and
    /// index allocations: inode numbering restarts so a reused table assigns
    /// the same inodes a fresh one would.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.positions.clear();
        self.tombstones = 0;
        self.next_inode = 10_000;
        self.uid_index.clear();
        self.generation = 0;
        self.lookups = 0;
        self.scan_elems = 0;
    }

    /// The table's gated instrumentation, as `(counter name, value)` pairs —
    /// all zero unless the `profiling` feature is on.
    pub fn profile_counters(&self) -> [(&'static str, u64); 2] {
        [("conn_table.lookups", self.lookups), ("conn_table.scan_elems", self.scan_elems)]
    }

    /// Registers a connection owned by `uid`. Returns the assigned inode.
    pub fn register(
        &mut self,
        flow: FourTuple,
        tcp: bool,
        uid: u32,
        state: SocketStateCode,
    ) -> u64 {
        let inode = self.next_inode;
        self.next_inode += 1;
        self.positions.entry(flow).or_default().push(self.slots.len());
        self.slots.push(Some(ConnectionEntry {
            protocol: Protocol::for_flow(&flow, tcp),
            local: flow.src,
            remote: flow.dst,
            state,
            uid,
            inode,
        }));
        self.uid_index.entry(flow).or_insert(uid);
        self.generation += 1;
        inode
    }

    /// Updates the state of the first-registered live connection matching
    /// `flow`.
    ///
    /// The uid index is untouched: a state change never alters ownership.
    pub fn set_state(&mut self, flow: FourTuple, state: SocketStateCode) -> bool {
        let first = self.positions.get(&flow).and_then(|slots| slots.first().copied());
        self.count_scan(u64::from(first.is_some()));
        match first.and_then(|pos| self.slots[pos].as_mut()) {
            Some(entry) => {
                entry.state = state;
                true
            }
            None => false,
        }
    }

    /// Removes every connection matching `flow`. Returns true if any was
    /// found.
    pub fn remove(&mut self, flow: FourTuple) -> bool {
        let Some(slots) = self.positions.remove(&flow) else {
            self.count_scan(0);
            return false;
        };
        self.count_scan(slots.len() as u64);
        for &pos in &slots {
            self.slots[pos] = None;
        }
        self.tombstones += slots.len();
        self.uid_index.remove(&flow);
        self.generation += 1;
        if self.tombstones > self.len() {
            self.compact();
        }
        true
    }

    /// Counts one `set_state`/`remove` call that touched `slots` slots.
    fn count_scan(&mut self, slots: u64) {
        #[cfg(feature = "profiling")]
        {
            self.lookups += 1;
            self.scan_elems += slots;
        }
        #[cfg(not(feature = "profiling"))]
        {
            let _ = slots;
        }
    }

    /// Drops tombstoned slots, preserving the relative order of live
    /// entries, and rebuilds the slot index.
    fn compact(&mut self) {
        #[cfg(feature = "profiling")]
        {
            self.scan_elems += self.slots.len() as u64;
        }
        self.slots.retain(Option::is_some);
        self.tombstones = 0;
        self.rebuild_positions();
    }

    /// Rebuilds the slot index from a tombstone-free slot vector.
    fn rebuild_positions(&mut self) {
        self.positions.clear();
        for (pos, e) in self.slots.iter().flatten().enumerate() {
            self.positions.entry(FourTuple::new(e.local, e.remote)).or_default().push(pos);
        }
    }

    /// Looks up the UID owning `flow` — O(1) via the incremental index.
    pub fn uid_of(&self, flow: FourTuple) -> Option<u32> {
        self.uid_index.get(&flow).copied()
    }

    /// The incrementally maintained flow → uid index.
    ///
    /// This is what the packet-to-app mappers consult instead of re-rendering
    /// and re-parsing the `/proc/net` text on every lookup; the parse *cost*
    /// is still charged through the cost model, but the wall-clock work is
    /// amortised O(1).
    pub fn uid_index(&self) -> &FlowMap<FourTuple, u32> {
        &self.uid_index
    }

    /// Generation counter: advances whenever the flow → uid relation mutates.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up a UID by local port only — the fallback Android tools use
    /// when the local address is rewritten by the VPN.
    pub fn uid_of_local_port(&self, port: u16) -> Option<u32> {
        self.entries().find(|e| e.local.port == port).map(|e| e.uid)
    }

    /// Entries belonging to one pseudo file, in registration order.
    pub fn entries_for(&self, protocol: Protocol) -> Vec<&ConnectionEntry> {
        self.entries().filter(|e| e.protocol == protocol).collect()
    }

    /// All live entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &ConnectionEntry> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Number of live entries (across all four files).
    pub fn len(&self) -> usize {
        self.slots.len() - self.tombstones
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps only the newest `max` entries (a crude stand-in for kernel
    /// socket reclamation, keeps long simulations bounded).
    ///
    /// Reclamation is rare and batched, so the indexes are rebuilt wholesale
    /// here rather than diffed entry by entry.
    pub fn truncate_oldest(&mut self, max: usize) {
        let live = self.len();
        if live > max {
            self.slots.retain(Option::is_some);
            self.slots.drain(0..live - max);
            self.tombstones = 0;
            self.rebuild_positions();
            self.uid_index.clear();
            for e in self.slots.iter().flatten() {
                self.uid_index.entry(FourTuple::new(e.local, e.remote)).or_insert(e.uid);
            }
            self.generation += 1;
        }
    }

    /// Returns true if an IP address belongs to any registered local endpoint.
    pub fn has_local_addr(&self, addr: IpAddr) -> bool {
        self.entries().any(|e| e.local.addr == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flow(port: u16, uid: u32) -> (FourTuple, u32) {
        (
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(31, 13, 79, 251, 443)),
            uid,
        )
    }

    #[test]
    fn register_lookup_remove_roundtrip() {
        let mut table = ConnectionTable::new();
        let (f1, uid1) = flow(40000, 10123);
        let (f2, uid2) = flow(40001, 10456);
        let inode1 = table.register(f1, true, uid1, SocketStateCode::SynSent);
        let inode2 = table.register(f2, true, uid2, SocketStateCode::Established);
        assert_ne!(inode1, inode2);
        assert_eq!(table.len(), 2);
        assert_eq!(table.uid_of(f1), Some(uid1));
        assert_eq!(table.uid_of_local_port(40001), Some(uid2));
        assert!(table.set_state(f1, SocketStateCode::Established));
        assert!(table.remove(f1));
        assert!(!table.remove(f1));
        assert_eq!(table.uid_of(f1), None);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn protocol_classification() {
        let v4 = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 1), Endpoint::v4(8, 8, 8, 8, 53));
        assert_eq!(Protocol::for_flow(&v4, true), Protocol::Tcp);
        assert_eq!(Protocol::for_flow(&v4, false), Protocol::Udp);
        let v6 = FourTuple::new(
            Endpoint::new("fe80::2".parse::<std::net::Ipv6Addr>().unwrap(), 1),
            Endpoint::new("2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap(), 53),
        );
        assert_eq!(Protocol::for_flow(&v6, true), Protocol::Tcp6);
        assert_eq!(Protocol::for_flow(&v6, false), Protocol::Udp6);
        assert_eq!(Protocol::Tcp6.file_name(), "tcp6");
    }

    #[test]
    fn entries_for_filters_by_protocol() {
        let mut table = ConnectionTable::new();
        let (f1, uid1) = flow(40000, 1);
        table.register(f1, true, uid1, SocketStateCode::Established);
        let udp_flow = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 5353), Endpoint::v4(8, 8, 8, 8, 53));
        table.register(udp_flow, false, 2, SocketStateCode::Close);
        assert_eq!(table.entries_for(Protocol::Tcp).len(), 1);
        assert_eq!(table.entries_for(Protocol::Udp).len(), 1);
        assert_eq!(table.entries_for(Protocol::Tcp6).len(), 0);
        assert!(table.has_local_addr("10.0.0.2".parse().unwrap()));
        assert!(!table.has_local_addr("10.0.0.99".parse().unwrap()));
    }

    #[test]
    fn state_codes_roundtrip() {
        for s in [
            SocketStateCode::Established,
            SocketStateCode::SynSent,
            SocketStateCode::TimeWait,
            SocketStateCode::Close,
            SocketStateCode::Listen,
        ] {
            assert_eq!(SocketStateCode::from_code(s.code()), s);
        }
        assert_eq!(SocketStateCode::from_code("FF"), SocketStateCode::Close);
    }

    #[test]
    fn truncate_drops_oldest_entries() {
        let mut table = ConnectionTable::new();
        for port in 0..20u16 {
            let (f, uid) = flow(40000 + port, 10_000 + u32::from(port));
            table.register(f, true, uid, SocketStateCode::Established);
        }
        table.truncate_oldest(5);
        assert_eq!(table.len(), 5);
        // The newest entries (highest ports) survive.
        assert!(table.uid_of_local_port(40019).is_some());
        assert!(table.uid_of_local_port(40000).is_none());
    }

    #[test]
    fn duplicate_four_tuples_update_first_and_remove_all() {
        let mut table = ConnectionTable::new();
        let (f, _) = flow(40000, 0);
        let (other, _) = flow(40001, 0);
        table.register(f, true, 1, SocketStateCode::SynSent);
        table.register(other, true, 2, SocketStateCode::SynSent);
        table.register(f, true, 3, SocketStateCode::SynSent);
        // The first registration owns the flow and takes the state change.
        assert_eq!(table.uid_of(f), Some(1));
        assert!(table.set_state(f, SocketStateCode::Established));
        let states: Vec<(u32, SocketStateCode)> =
            table.entries().map(|e| (e.uid, e.state)).collect();
        assert_eq!(
            states,
            [
                (1, SocketStateCode::Established),
                (2, SocketStateCode::SynSent),
                (3, SocketStateCode::SynSent),
            ]
        );
        // Removal drops every duplicate at once.
        assert!(table.remove(f));
        assert_eq!(table.len(), 1);
        assert_eq!(table.uid_of(f), None);
        assert!(!table.set_state(f, SocketStateCode::Close));
        assert!(!table.remove(f));
        assert_eq!(table.entries().map(|e| e.uid).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn render_order_survives_interleaved_register_and_remove() {
        let mut table = ConnectionTable::new();
        let mut expected = Vec::new();
        for port in 0..40u16 {
            let (f, uid) = flow(40000 + port, u32::from(port));
            table.register(f, true, uid, SocketStateCode::Established);
            expected.push(uid);
            // Remove every other older flow as new ones arrive, forcing
            // tombstones and compactions between registrations.
            if port % 2 == 1 {
                let victim = port / 2;
                assert!(table.remove(flow(40000 + victim, 0).0));
                expected.retain(|&u| u != u32::from(victim));
            }
        }
        let rendered: Vec<u32> = table.entries_for(Protocol::Tcp).iter().map(|e| e.uid).collect();
        assert_eq!(rendered, expected);
        assert_eq!(table.len(), expected.len());
        // Inodes still run in registration order.
        let inodes: Vec<u64> = table.entries().map(|e| e.inode).collect();
        assert!(inodes.windows(2).all(|w| w[0] < w[1]));
        // Truncation keeps the newest entries in the same order.
        table.truncate_oldest(5);
        let kept: Vec<u32> = table.entries().map(|e| e.uid).collect();
        assert_eq!(kept, expected[expected.len() - 5..]);
        assert_eq!(table.uid_of(flow(40039, 0).0), Some(39));
    }

    /// The plain-`Vec` table the slot index replaced, kept as the reference
    /// for the indexed one.
    #[derive(Default)]
    struct VecModel {
        entries: Vec<(FourTuple, u32, SocketStateCode)>,
    }

    impl VecModel {
        fn set_state(&mut self, f: FourTuple, state: SocketStateCode) -> bool {
            match self.entries.iter_mut().find(|e| e.0 == f) {
                Some(e) => {
                    e.2 = state;
                    true
                }
                None => false,
            }
        }

        fn remove(&mut self, f: FourTuple) -> bool {
            let before = self.entries.len();
            self.entries.retain(|e| e.0 != f);
            self.entries.len() != before
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn slot_index_matches_the_vec_table(
            // (op, port slot): few slots force duplicates and reuse.
            ops in proptest::collection::vec((0u8..10, 0u16..12), 0..200),
        ) {
            let mut table = ConnectionTable::new();
            let mut model = VecModel::default();
            for (i, (op, slot)) in ops.into_iter().enumerate() {
                let (f, _) = flow(40000 + slot, 0);
                match op {
                    0..=3 => {
                        let uid = i as u32;
                        table.register(f, true, uid, SocketStateCode::SynSent);
                        model.entries.push((f, uid, SocketStateCode::SynSent));
                    }
                    4..=5 => {
                        let state = SocketStateCode::Established;
                        prop_assert_eq!(table.set_state(f, state), model.set_state(f, state));
                    }
                    6..=8 => prop_assert_eq!(table.remove(f), model.remove(f)),
                    _ => {
                        let max = usize::from(slot);
                        table.truncate_oldest(max);
                        let excess = model.entries.len().saturating_sub(max);
                        model.entries.drain(0..excess);
                    }
                }
                let rows: Vec<(FourTuple, u32, SocketStateCode)> = table
                    .entries()
                    .map(|e| (FourTuple::new(e.local, e.remote), e.uid, e.state))
                    .collect();
                prop_assert_eq!(&rows, &model.entries);
                prop_assert_eq!(table.len(), model.entries.len());
                let owner = model.entries.iter().find(|e| e.0 == f).map(|e| e.1);
                prop_assert_eq!(table.uid_of(f), owner);
            }
        }
    }
}
