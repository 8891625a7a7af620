//! A wire tap on the simulated access link.
//!
//! In the paper, tcpdump running with root privilege provides the reference
//! RTTs against which MopEye and MobiPerf are judged (Table 2). The tap plays
//! the same role here: it records every transport event at the interface,
//! below any measuring application, so its SYN→SYN/ACK gaps are ground truth.

use std::cell::Cell;

use mop_packet::{FlowMap, FlowSet, FourTuple};

use crate::time::{SimDuration, SimTime};

/// Direction of a tapped packet relative to the handset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDirection {
    /// Leaving the handset towards the network.
    Outbound,
    /// Arriving at the handset from the network.
    Inbound,
}

/// The kind of transport event observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    /// A TCP SYN.
    Syn,
    /// A TCP SYN/ACK.
    SynAck,
    /// A TCP data segment of the given payload length.
    Data(usize),
    /// A TCP FIN.
    Fin,
    /// A TCP RST.
    Rst,
    /// A DNS query.
    DnsQuery,
    /// A DNS response.
    DnsResponse,
}

/// One tapped packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapRecord {
    /// When the packet crossed the interface.
    pub at: SimTime,
    /// Direction relative to the handset.
    pub direction: TapDirection,
    /// Event kind.
    pub kind: TapKind,
    /// Connection four-tuple, in the outbound orientation.
    pub flow: FourTuple,
}

/// An in-memory capture buffer.
///
/// Alongside the capture-ordered record list, the tap keeps a per-flow index
/// of record positions (also in capture order), maintained by [`record`] and
/// reset by [`clear`]. The ground-truth lookups — [`handshake_rtt`],
/// [`dns_rtt`] and [`all_handshake_rtts`] — run over one flow's positions
/// only, so a lookup costs O(records of that flow), not O(records of the
/// run): the relay asks on every connect and every DNS answer, so a
/// whole-capture scan would make a run of F flows Θ(F²) on the host.
///
/// [`record`]: WireTap::record
/// [`clear`]: WireTap::clear
/// [`handshake_rtt`]: WireTap::handshake_rtt
/// [`dns_rtt`]: WireTap::dns_rtt
/// [`all_handshake_rtts`]: WireTap::all_handshake_rtts
#[derive(Debug, Default, Clone)]
pub struct WireTap {
    records: Vec<TapRecord>,
    /// Each flow's list id in `positions`.
    by_flow: FlowMap<FourTuple, u32>,
    /// Per-flow positions into `records`, in capture order.
    positions: Vec<Vec<u32>>,
    /// The most recently recorded flow and its list id: consecutive records
    /// of one flow (a response's data chunks) skip the hash probe.
    last: Option<(FourTuple, u32)>,
    enabled: bool,
    /// Gated instrumentation (written only under the `profiling` feature):
    /// per-flow lookups served, and index positions they visited.
    lookups: Cell<u64>,
    scan_elems: Cell<u64>,
}

impl WireTap {
    /// Creates an enabled tap.
    pub fn new() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Creates a disabled tap that drops everything (zero overhead runs).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Returns true if capturing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event.
    pub fn record(&mut self, at: SimTime, direction: TapDirection, kind: TapKind, flow: FourTuple) {
        if self.enabled {
            let pos = u32::try_from(self.records.len()).expect("tap capture exceeds u32 positions");
            let id = match self.last {
                Some((last, id)) if last == flow => id,
                _ => {
                    let next = self.positions.len() as u32;
                    let id = *self.by_flow.entry(flow).or_insert(next);
                    if id == next {
                        self.positions.push(Vec::new());
                    }
                    self.last = Some((flow, id));
                    id
                }
            };
            self.positions[id as usize].push(pos);
            self.records.push(TapRecord { at, direction, kind, flow });
        }
    }

    /// All captured records in capture order.
    pub fn records(&self) -> &[TapRecord] {
        &self.records
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Clears the capture buffer and its per-flow index.
    pub fn clear(&mut self) {
        self.records.clear();
        self.by_flow.clear();
        self.positions.clear();
        self.last = None;
    }

    /// The tap's gated instrumentation, as `(counter name, value)` pairs —
    /// all zero unless the `profiling` feature is on.
    pub fn profile_counters(&self) -> [(&'static str, u64); 2] {
        [("tap.lookups", self.lookups.get()), ("tap.scan_elems", self.scan_elems.get())]
    }

    /// The capture positions of `flow`'s records, in capture order.
    fn positions_of(&self, flow: &FourTuple) -> Option<&[u32]> {
        self.by_flow.get(flow).map(|&id| self.positions[id as usize].as_slice())
    }

    /// The first record at `positions` that satisfies `pred`.
    fn find_at(&self, positions: &[u32], pred: impl Fn(&TapRecord) -> bool) -> Option<&TapRecord> {
        let hit = positions.iter().position(|&pos| pred(&self.records[pos as usize]));
        #[cfg(feature = "profiling")]
        {
            let visited = hit.map_or(positions.len(), |i| i + 1);
            self.lookups.set(self.lookups.get() + 1);
            self.scan_elems.set(self.scan_elems.get() + visited as u64);
        }
        hit.map(|i| &self.records[positions[i] as usize])
    }

    /// The tcpdump-style RTT of `flow`: the gap between the first outbound
    /// SYN and the first inbound SYN/ACK at or after it.
    pub fn handshake_rtt(&self, flow: FourTuple) -> Option<SimDuration> {
        let positions = self.positions_of(&flow)?;
        let syn = self.find_at(positions, |r| {
            r.kind == TapKind::Syn && r.direction == TapDirection::Outbound
        })?;
        let syn_ack = self.find_at(positions, |r| {
            r.kind == TapKind::SynAck && r.direction == TapDirection::Inbound && r.at >= syn.at
        })?;
        Some(syn_ack.at - syn.at)
    }

    /// The tcpdump-style DNS RTT of `flow`: first query to first response.
    pub fn dns_rtt(&self, flow: FourTuple) -> Option<SimDuration> {
        let positions = self.positions_of(&flow)?;
        let q = self.find_at(positions, |r| r.kind == TapKind::DnsQuery)?;
        let a = self.find_at(positions, |r| r.kind == TapKind::DnsResponse && r.at >= q.at)?;
        Some(a.at - q.at)
    }

    /// All handshake RTTs in the capture, keyed by flow, in SYN order: one
    /// entry per flow that has one, placed at its first outbound SYN.
    pub fn all_handshake_rtts(&self) -> Vec<(FourTuple, SimDuration)> {
        let mut seen = FlowSet::with_capacity_and_hasher(self.by_flow.len(), Default::default());
        self.records
            .iter()
            .filter(|r| r.kind == TapKind::Syn && r.direction == TapDirection::Outbound)
            .filter(|r| seen.insert(r.flow))
            .filter_map(|r| self.handshake_rtt(r.flow).map(|rtt| (r.flow, rtt)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::Endpoint;
    use proptest::prelude::*;

    /// The whole-capture linear scans the per-flow index replaced, kept as
    /// the reference the indexed lookups must match exactly.
    mod oracle {
        use super::*;

        pub fn handshake_rtt(records: &[TapRecord], flow: FourTuple) -> Option<SimDuration> {
            let syn = records.iter().find(|r| {
                r.flow == flow && r.kind == TapKind::Syn && r.direction == TapDirection::Outbound
            })?;
            let syn_ack = records.iter().find(|r| {
                r.flow == flow
                    && r.kind == TapKind::SynAck
                    && r.direction == TapDirection::Inbound
                    && r.at >= syn.at
            })?;
            Some(syn_ack.at - syn.at)
        }

        pub fn dns_rtt(records: &[TapRecord], flow: FourTuple) -> Option<SimDuration> {
            let q = records.iter().find(|r| r.flow == flow && r.kind == TapKind::DnsQuery)?;
            let a = records
                .iter()
                .find(|r| r.flow == flow && r.kind == TapKind::DnsResponse && r.at >= q.at)?;
            Some(a.at - q.at)
        }

        pub fn all_handshake_rtts(records: &[TapRecord]) -> Vec<(FourTuple, SimDuration)> {
            let mut out = Vec::new();
            for r in records {
                if r.kind == TapKind::Syn && r.direction == TapDirection::Outbound {
                    if let Some(rtt) = handshake_rtt(records, r.flow) {
                        if !out.iter().any(|(f, _)| *f == r.flow) {
                            out.push((r.flow, rtt));
                        }
                    }
                }
            }
            out
        }
    }

    /// Flow slots the property streams draw from: slots 0..=4 carry any
    /// event kind, slot 5 only RSTs, and slots 6 and 7 are never recorded.
    const RST_ONLY_SLOT: u16 = 5;
    const QUERIED_SLOTS: u16 = 8;

    fn kind_of(code: u8) -> TapKind {
        match code {
            0 => TapKind::Syn,
            1 => TapKind::SynAck,
            2 => TapKind::Data(100),
            3 => TapKind::Fin,
            4 => TapKind::Rst,
            5 => TapKind::DnsQuery,
            _ => TapKind::DnsResponse,
        }
    }

    /// Asserts every indexed lookup equals the linear-scan oracle over the
    /// tap's current capture.
    fn assert_matches_oracle(tap: &WireTap) {
        let records = tap.records();
        for slot in 0..QUERIED_SLOTS {
            let f = flow(40000 + slot);
            let expected = oracle::handshake_rtt(records, f);
            assert_eq!(tap.handshake_rtt(f), expected, "handshake, slot {slot}");
            assert_eq!(tap.dns_rtt(f), oracle::dns_rtt(records, f), "dns, slot {slot}");
        }
        assert_eq!(tap.all_handshake_rtts(), oracle::all_handshake_rtts(records));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn indexed_lookups_match_the_linear_scan(
            // (op, flow slot, kind, outbound, at ms): op < 3 clears the tap
            // mid-stream; small slot and time ranges force reused
            // four-tuples, retransmitted SYNs, repeated DNS responses and
            // replies captured before (or stamped earlier than) their SYN.
            stream in proptest::collection::vec(
                (0u8..100, 0u16..RST_ONLY_SLOT + 1, 0u8..7, any::<bool>(), 0u64..60),
                0..160,
            ),
        ) {
            let mut tap = WireTap::new();
            let mut disabled = WireTap::disabled();
            for (op, slot, kind, outbound, at) in stream {
                if op < 3 {
                    tap.clear();
                    prop_assert!(tap.is_empty());
                } else {
                    let kind = if slot == RST_ONLY_SLOT { TapKind::Rst } else { kind_of(kind) };
                    let direction =
                        if outbound { TapDirection::Outbound } else { TapDirection::Inbound };
                    let at = SimTime::from_millis(at);
                    tap.record(at, direction, kind, flow(40000 + slot));
                    disabled.record(at, direction, kind, flow(40000 + slot));
                }
                assert_matches_oracle(&tap);
            }
            prop_assert!(disabled.is_empty());
            assert_matches_oracle(&disabled);
        }
    }

    #[test]
    fn indexed_lookups_survive_reuse_and_clear() {
        let mut tap = WireTap::new();
        let f = flow(40000);
        // The SYN/ACK is captured first but stamped after the SYN; an
        // inbound SYN and an earlier-stamped SYN/ACK must be ignored.
        tap.record(SimTime::from_millis(30), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(5), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(1), TapDirection::Inbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(10), TapDirection::Outbound, TapKind::Syn, f);
        assert_eq!(tap.handshake_rtt(f), Some(SimDuration::from_millis(20)));
        // Reusing the four-tuple later in the run keeps the first answer.
        tap.record(SimTime::from_millis(100), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(104), TapDirection::Inbound, TapKind::SynAck, f);
        assert_eq!(tap.handshake_rtt(f), Some(SimDuration::from_millis(20)));
        assert_matches_oracle(&tap);
        // After a clear only the new capture counts.
        tap.clear();
        assert!(tap.handshake_rtt(f).is_none());
        tap.record(SimTime::from_millis(200), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(207), TapDirection::Inbound, TapKind::SynAck, f);
        assert_eq!(tap.handshake_rtt(f), Some(SimDuration::from_millis(7)));
        assert_eq!(tap.records().len(), 2);
        assert_matches_oracle(&tap);
    }

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(216, 58, 221, 132, 443))
    }

    #[test]
    fn handshake_rtt_is_syn_to_synack_gap() {
        let mut tap = WireTap::new();
        let f = flow(40000);
        tap.record(SimTime::from_millis(100), TapDirection::Outbound, TapKind::Syn, f);
        tap.record(SimTime::from_millis(104), TapDirection::Inbound, TapKind::SynAck, f);
        tap.record(SimTime::from_millis(105), TapDirection::Outbound, TapKind::Data(100), f);
        assert_eq!(tap.handshake_rtt(f).unwrap().as_millis(), 4);
        assert_eq!(tap.len(), 3);
    }

    #[test]
    fn missing_synack_yields_none() {
        let mut tap = WireTap::new();
        let f = flow(40001);
        tap.record(SimTime::from_millis(10), TapDirection::Outbound, TapKind::Syn, f);
        assert!(tap.handshake_rtt(f).is_none());
        assert!(tap.handshake_rtt(flow(5)).is_none());
    }

    #[test]
    fn dns_rtt_pairs_query_with_response() {
        let mut tap = WireTap::new();
        let f = FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41000), Endpoint::v4(192, 168, 1, 1, 53));
        tap.record(SimTime::from_millis(50), TapDirection::Outbound, TapKind::DnsQuery, f);
        tap.record(SimTime::from_millis(92), TapDirection::Inbound, TapKind::DnsResponse, f);
        assert_eq!(tap.dns_rtt(f).unwrap().as_millis(), 42);
    }

    #[test]
    fn disabled_tap_records_nothing() {
        let mut tap = WireTap::disabled();
        tap.record(SimTime::ZERO, TapDirection::Outbound, TapKind::Syn, flow(1));
        assert!(tap.is_empty());
        assert!(!tap.is_enabled());
    }

    #[test]
    fn all_handshake_rtts_lists_each_flow_once() {
        let mut tap = WireTap::new();
        for (i, port) in [40000u16, 40001, 40002].iter().enumerate() {
            let f = flow(*port);
            let base = SimTime::from_millis(10 * i as u64);
            tap.record(base, TapDirection::Outbound, TapKind::Syn, f);
            tap.record(base + SimDuration::from_millis(5), TapDirection::Inbound, TapKind::SynAck, f);
        }
        // A retransmitted SYN for the first flow must not duplicate it.
        tap.record(SimTime::from_millis(100), TapDirection::Outbound, TapKind::Syn, flow(40000));
        let rtts = tap.all_handshake_rtts();
        assert_eq!(rtts.len(), 3);
        assert!(rtts.iter().all(|(_, rtt)| rtt.as_millis() == 5));
        tap.clear();
        assert!(tap.is_empty());
    }
}
