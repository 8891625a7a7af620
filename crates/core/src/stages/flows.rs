//! The flow table: one record per flow, resolved once per event.
//!
//! * The **index** maps a *canonical* four-tuple to a [`FlowId`]. A flow
//!   gets its id when it starts or when its four-tuple is first seen on a
//!   packet; the index is probed, never iterated, and cleared (not dropped)
//!   between runs. Every later event of the flow carries the id.
//! * The **records**, one [`FlowRecord`] per flow in insertion order, last
//!   the whole run: what the app side, the sink and the lazy mapper know
//!   about the flow, and its external socket.
//! * The **live pool** is a free-listed slab of `LiveFlow` slots with the
//!   state of a connection in progress. A slot is taken when its first
//!   field appears and returned when its last one goes, exactly when the
//!   per-field tables it replaces inserted and removed their entries, so
//!   memory tracks concurrent connections and digests stay bit-identical.
//!
//! `docs/ARCHITECTURE.md` ("Life of a flow record") tells the whole story.

use mop_measure::NetKind;
use mop_packet::{FlowMap, FourTuple};
use mop_simnet::{SimRng, SimTime, SocketId};
use mop_tcpstack::TcpClient;
use mop_tun::{AppEndpoint, DnsClient, FlowSpec};

use crate::stats::FlowOutcome;
use crate::tun_writer::WriterLane;

/// The position of a flow's record in the current run's table; events of
/// one run carry it in place of the four-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowId(u32);

/// A flow's outcome bookkeeping and the aggregation labels its spec carried.
#[derive(Debug)]
pub struct FlowMeta {
    pub(crate) package: String,
    pub(crate) started_at: SimTime,
    pub(crate) finished_at: SimTime,
    pub(crate) bytes_received: usize,
    pub(crate) completed: bool,
    /// Network label carried by the flow spec (scenario-assigned); `None`
    /// falls back to the simulated access profile at measurement time.
    pub(crate) network: Option<NetKind>,
    /// ISP label carried by the flow spec.
    pub(crate) isp: Option<String>,
}

impl FlowMeta {
    /// The bookkeeping of a flow `spec` that starts at `now`.
    pub(crate) fn started(spec: &FlowSpec, now: SimTime) -> Self {
        Self {
            package: spec.package.clone(),
            started_at: now,
            finished_at: now,
            bytes_received: 0,
            completed: false,
            network: spec.network,
            isp: spec.isp.clone(),
        }
    }
}

/// One flow of the current run. See the [module docs](self).
#[derive(Debug)]
pub struct FlowRecord {
    /// The app-side four-tuple (app → server) the record was created for.
    pub(crate) flow: FourTuple,
    /// The simulated app endpoint of a TCP flow.
    pub(crate) app: Option<AppEndpoint>,
    /// The simulated DNS client of a DNS flow.
    pub(crate) dns: Option<DnsClient>,
    /// Outcome bookkeeping, from the flow's start.
    pub(crate) meta: Option<FlowMeta>,
    /// When the flow was registered (lazy-mapping bookkeeping).
    pub(crate) registered_at: Option<SimTime>,
    /// The external socket of the latest connect.
    pub(crate) socket: Option<SocketId>,
    /// The flow's slot in the live pool, while it has live state.
    live: Option<u32>,
}

impl FlowRecord {
    /// Marks the flow finished (with the given completion verdict).
    pub(crate) fn finish(&mut self, now: SimTime, completed: bool) {
        if let Some(meta) = self.meta.as_mut() {
            meta.finished_at = now;
            meta.completed = completed;
        }
    }
}

/// The state of a connection in progress. See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct LiveFlow {
    /// The spliced TCP client (state machine, recovery state, timers).
    pub(crate) client: Option<TcpClient>,
    /// The flow-keyed RNG stream.
    pub(crate) rng: Option<SimRng>,
    /// The flow-keyed TunWriter timing lane.
    pub(crate) lane: Option<WriterLane>,
    /// Pre-`connect()` timestamp, pending until the connect completes.
    connect_pre: Option<SimTime>,
    /// The half-close waits for the read side to drain.
    pub(crate) half_close: bool,
    /// In-flight DNS measurement: send timestamp and queried name.
    pub(crate) dns_pending: Option<(SimTime, String)>,
}

impl LiveFlow {
    fn is_idle(&self) -> bool {
        self.client.is_none()
            && self.rng.is_none()
            && self.lane.is_none()
            && self.connect_pre.is_none()
            && !self.half_close
            && self.dns_pending.is_none()
    }
}

/// The initial sequence number of a run's first TCP client, minus one step.
const ISN_BASE: u32 = 0x1000;
/// The distance between consecutive clients' initial sequence numbers.
const ISN_STEP: u32 = 0x01_0000;

/// The engine's per-flow state. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Canonical four-tuple → record. Probed, never iterated.
    index: FlowMap<FourTuple, FlowId>,
    /// Every flow of the run, in insertion order.
    records: Vec<FlowRecord>,
    /// The live pool's slots, free ones included.
    live: Vec<LiveFlow>,
    /// Free slots of the live pool.
    free: Vec<u32>,
    /// TCP clients created this run (the k-th gets ISN `base + k·step`).
    clients_created: u64,
    /// TCP clients removed this run.
    clients_removed: u64,
    /// Flows whose external connect is in progress.
    pending_connects: usize,
    /// Index probes this run.
    index_lookups: u64,
}

impl FlowTable {
    /// Empties the table for a new run, keeping every allocation.
    pub(crate) fn reset(&mut self) {
        self.index.clear();
        self.records.clear();
        self.live.clear();
        self.free.clear();
        self.clients_created = 0;
        self.clients_removed = 0;
        self.pending_connects = 0;
        self.index_lookups = 0;
    }

    /// Pre-sizes the index and the records for `flows` flows.
    pub(crate) fn reserve(&mut self, flows: usize) {
        self.index.reserve(flows);
        self.records.reserve(flows);
    }

    /// The record of `flow` (either direction), created on first sight:
    /// the one index probe of an event.
    pub(crate) fn resolve(&mut self, flow: FourTuple) -> FlowId {
        self.index_lookups += 1;
        let next = FlowId(u32::try_from(self.records.len()).expect("under 2^32 flows per run"));
        let id = *self.index.entry(flow.canonical()).or_insert(next);
        if id == next {
            let record = FlowRecord {
                flow,
                app: None,
                dns: None,
                meta: None,
                registered_at: None,
                socket: None,
                live: None,
            };
            self.records.push(record);
        }
        id
    }

    /// Index probes since the last reset.
    pub(crate) fn index_lookups(&self) -> u64 {
        self.index_lookups
    }

    /// The app-side four-tuple of `id`.
    pub(crate) fn key(&self, id: FlowId) -> FourTuple {
        self.record(id).flow
    }

    pub(crate) fn record(&self, id: FlowId) -> &FlowRecord {
        &self.records[id.0 as usize]
    }

    pub(crate) fn record_mut(&mut self, id: FlowId) -> &mut FlowRecord {
        &mut self.records[id.0 as usize]
    }

    /// One outcome per started flow, in the order the flows were first seen.
    pub(crate) fn outcomes(&self) -> Vec<FlowOutcome> {
        let outcome = |record: &FlowRecord| {
            let meta = record.meta.as_ref()?;
            Some(FlowOutcome {
                flow: record.flow,
                package: meta.package.clone(),
                started_at: meta.started_at,
                finished_at: meta.finished_at,
                bytes_received: meta.bytes_received,
                completed: meta.completed,
            })
        };
        self.records.iter().filter_map(outcome).collect()
    }

    // ----- the live pool ---------------------------------------------------

    /// `id`'s live slot, if it has one.
    pub(crate) fn live(&self, id: FlowId) -> Option<&LiveFlow> {
        self.record(id).live.map(|slot| &self.live[slot as usize])
    }

    /// `id`'s live slot, mutably, if it has one.
    pub(crate) fn live_mut(&mut self, id: FlowId) -> Option<&mut LiveFlow> {
        self.record(id).live.map(|slot| &mut self.live[slot as usize])
    }

    /// `id`'s live slot, taken from the pool if the flow has none.
    pub(crate) fn live_or_take(&mut self, id: FlowId) -> &mut LiveFlow {
        let slot = match self.record(id).live {
            Some(slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.live.push(LiveFlow::default());
                    (self.live.len() - 1) as u32
                });
                self.record_mut(id).live = Some(slot);
                slot
            }
        };
        &mut self.live[slot as usize]
    }

    /// Runs `change` on `id`'s live slot, if it has one, then returns the
    /// slot to the pool if nothing is left in it. Every removal goes
    /// through here, except an RNG checkout, which is always checked back in.
    pub(crate) fn update<T>(
        &mut self,
        id: FlowId,
        change: impl FnOnce(&mut LiveFlow) -> T,
    ) -> Option<T> {
        let slot = self.record(id).live?;
        let out = change(&mut self.live[slot as usize]);
        if self.live[slot as usize].is_idle() {
            self.record_mut(id).live = None;
            self.free.push(slot);
        }
        Some(out)
    }

    /// Live-pool slots in use (flows with any live state).
    #[cfg(test)]
    pub(crate) fn live_slots(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// The TCP client of `id`, if one is live.
    pub(crate) fn client_mut(&mut self, id: FlowId) -> Option<&mut TcpClient> {
        self.live_mut(id)?.client.as_mut()
    }

    /// The TCP client of `id`, created with the next initial sequence number
    /// if none is live.
    pub(crate) fn client_or_create(&mut self, id: FlowId) -> &mut TcpClient {
        if self.live(id).map_or(true, |live| live.client.is_none()) {
            self.clients_created += 1;
            let isn = ISN_BASE.wrapping_add(ISN_STEP.wrapping_mul(self.clients_created as u32));
            let client = TcpClient::new(self.key(id), isn);
            self.live_or_take(id).client = Some(client);
        }
        self.client_mut(id).expect("just created")
    }

    /// Removes `id`'s TCP client (the RST / teardown path).
    pub(crate) fn remove_client(&mut self, id: FlowId) -> Option<TcpClient> {
        let removed = self.update(id, |live| live.client.take()).flatten();
        self.clients_removed += u64::from(removed.is_some());
        removed
    }

    /// TCP clients currently live.
    pub(crate) fn live_clients(&self) -> usize {
        (self.clients_created - self.clients_removed) as usize
    }

    /// Records the pre-`connect()` timestamp of `id`.
    pub(crate) fn set_connect_pre(&mut self, id: FlowId, at: SimTime) {
        let fresh = self.live_or_take(id).connect_pre.replace(at).is_none();
        self.pending_connects += usize::from(fresh);
    }

    /// Takes the pre-`connect()` timestamp of `id` (the connect completed).
    pub(crate) fn take_connect_pre(&mut self, id: FlowId) -> Option<SimTime> {
        let pre = self.update(id, |live| live.connect_pre.take()).flatten();
        self.pending_connects -= usize::from(pre.is_some());
        pre
    }

    /// True while any external connect is in progress (the socket-connect
    /// threads contend for the tunnel writer, §3.5.1).
    pub(crate) fn connects_pending(&self) -> bool {
        self.pending_connects > 0
    }
}

#[cfg(test)]
mod tests {
    use mop_packet::{Endpoint, FlowMap, FlowSet, PacketBuilder};
    use mop_simnet::{CostModel, CpuLedger};
    use mop_tcpstack::TcpState;
    use proptest::prelude::*;

    use super::*;
    use crate::config::{EnqueueScheme, WriteScheme};
    use crate::tun_writer::TunWriter;

    fn flow(port: u16) -> FourTuple {
        FourTuple::new(Endpoint::v4(10, 0, 0, 2, port), Endpoint::v4(31, 13, 79, 251, 443))
    }

    /// The initial sequence number a client answers the app's SYN with.
    fn isn_of(client: &mut TcpClient) -> u32 {
        let flow = client.machine().flow();
        let syn = PacketBuilder::new(flow.src, flow.dst).tcp_syn(7);
        client.machine_mut().on_tunnel_segment(syn.tcp().unwrap());
        client.machine_mut().on_external_connected()[0].tcp().unwrap().seq
    }

    #[test]
    fn client_or_create_is_idempotent_per_flow() {
        let mut table = FlowTable::default();
        let a = table.resolve(flow(1));
        let client = table.client_or_create(a);
        client.connect_started_ns = Some(77);
        assert_eq!(client.state(), TcpState::Listen);
        assert_eq!(table.live_clients(), 1);
        // A second lookup returns the same client (the handle persists), and
        // so does resolving the flow again, from either direction.
        assert_eq!(table.client_or_create(a).connect_started_ns, Some(77));
        assert_eq!(table.resolve(flow(1).reversed()), a);
        assert_eq!(table.clients_created, 1);
        let b = table.resolve(flow(2));
        assert_ne!(a, b);
        table.client_or_create(b);
        assert_eq!(table.clients_created, 2);
        assert_eq!(table.live_clients(), 2);
        assert_eq!(table.index_lookups(), 3);
    }

    #[test]
    fn clients_get_the_isn_sequence_and_a_reset_restarts_it() {
        let mut table = FlowTable::default();
        let mut isns = Vec::new();
        for round in 0..2 {
            for port in 1..=3 {
                let id = table.resolve(flow(port));
                isns.push(isn_of(table.client_or_create(id)));
            }
            // A recreated client (a zombie's tail) draws the next ISN too.
            let id = table.resolve(flow(1));
            table.remove_client(id);
            isns.push(isn_of(table.client_or_create(id)));
            if round == 0 {
                table.reset();
            }
        }
        let expected: Vec<u32> = (1..=4).map(|k| ISN_BASE + k * ISN_STEP).collect();
        assert_eq!(isns[..4], expected[..]);
        assert_eq!(isns[4..], expected[..], "a reset table hands out the same ISNs");
    }

    #[test]
    fn remove_counts_totals_and_frees_the_live_slot() {
        let mut table = FlowTable::default();
        let a = table.resolve(flow(1));
        let b = table.resolve(flow(2));
        table.client_or_create(a);
        table.client_or_create(b);
        assert_eq!(table.live_slots(), 2);
        assert!(table.remove_client(a).is_some());
        assert!(table.remove_client(a).is_none());
        assert_eq!((table.clients_created, table.clients_removed), (2, 1));
        assert_eq!(table.live_slots(), 1, "an empty slot goes back to the pool");
        // A slot with other live state stays taken until that goes too.
        table.live_or_take(b).rng = Some(SimRng::seed_from_u64(1));
        table.remove_client(b);
        assert_eq!(table.live_slots(), 1);
        table.update(b, |l| (l.rng, l.lane) = (None, None));
        assert_eq!(table.live_slots(), 0);
        assert_eq!(table.live_clients(), 0);
        // Records outlive their live state.
        assert_eq!(table.key(b), flow(2));
        assert_eq!(table.records.len(), 2);
    }

    /// One step of a random script over a small universe of flows.
    #[derive(Debug, Clone)]
    enum Op {
        CreateClient(usize),
        RemoveClient(usize),
        PutRng(usize, u64),
        TakeRng(usize),
        SetLane(usize, u64),
        Release(usize),
        SetConnectPre(usize, u64),
        TakeConnectPre(usize),
        SetHalfClose(usize),
        ClearHalfClose(usize),
        SetDnsPending(usize, u64),
        TakeDnsPending(usize),
        Register(usize, u64),
        Reset,
    }

    const FLOWS: usize = 5;

    fn arb_op() -> impl Strategy<Value = Op> {
        let f = || 0..FLOWS;
        prop_oneof![
            3 => f().prop_map(Op::CreateClient),
            2 => f().prop_map(Op::RemoveClient),
            2 => (f(), any::<u64>()).prop_map(|(i, s)| Op::PutRng(i, s)),
            2 => f().prop_map(Op::TakeRng),
            2 => (f(), 1u64..1_000).prop_map(|(i, t)| Op::SetLane(i, t)),
            2 => f().prop_map(Op::Release),
            1 => (f(), 1u64..1_000).prop_map(|(i, t)| Op::SetConnectPre(i, t)),
            1 => f().prop_map(Op::TakeConnectPre),
            1 => f().prop_map(Op::SetHalfClose),
            1 => f().prop_map(Op::ClearHalfClose),
            1 => (f(), 1u64..1_000).prop_map(|(i, t)| Op::SetDnsPending(i, t)),
            1 => f().prop_map(Op::TakeDnsPending),
            1 => (f(), 1u64..1_000).prop_map(|(i, t)| Op::Register(i, t)),
            1 => Just(Op::Reset),
        ]
    }

    /// A writer lane that has seen one write at `ms` milliseconds.
    fn lane_after(ms: u64) -> WriterLane {
        let mut lane = WriterLane::default();
        TunWriter::new(WriteScheme::Queue, EnqueueScheme::NewPut).submit_lane(
            &mut lane,
            SimTime::from_millis(ms),
            2,
            &CostModel::android_phone(),
            &mut SimRng::seed_from_u64(ms),
            &mut CpuLedger::new(),
        );
        lane
    }

    /// The per-field tables the flow table replaced, with their exact
    /// insert/overwrite/remove semantics: relay state keyed by the app-side
    /// four-tuple, RNG streams and writer lanes by the canonical one.
    #[derive(Default)]
    struct Model {
        /// Live clients, as the marker stamped on each at creation.
        clients: FlowMap<FourTuple, u64>,
        created: u64,
        removed: u64,
        rngs: FlowMap<FourTuple, u64>,
        lanes: FlowMap<FourTuple, WriterLane>,
        connect_pre: FlowMap<FourTuple, SimTime>,
        half_close: FlowSet<FourTuple>,
        dns_pending: FlowMap<FourTuple, (SimTime, String)>,
        registered_at: FlowMap<FourTuple, SimTime>,
    }

    impl Model {
        /// Flows with any state in a table that teardown empties.
        fn live(&self, flow: FourTuple) -> bool {
            let key = flow.canonical();
            self.clients.contains_key(&flow)
                || self.rngs.contains_key(&key)
                || self.lanes.contains_key(&key)
                || self.connect_pre.contains_key(&flow)
                || self.half_close.contains(&flow)
                || self.dns_pending.contains_key(&flow)
        }
    }

    /// The marker a script stamps on each client it creates.
    fn marker(client: &TcpClient) -> u64 {
        client.connect_started_ns.unwrap()
    }

    /// The first draw of a stream, as its observable identity.
    fn first_draw(rng: &SimRng) -> u64 {
        rng.clone().next_u64()
    }

    fn check(table: &FlowTable, model: &Model, flows: &[FourTuple]) {
        assert_eq!(table.live_clients(), model.clients.len());
        assert_eq!((table.clients_created, table.clients_removed), (model.created, model.removed));
        assert_eq!(table.connects_pending(), !model.connect_pre.is_empty());
        let live = flows.iter().filter(|f| model.live(**f)).count();
        assert_eq!(table.live_slots(), live, "live slots track live flows");
        for &f in flows {
            let Some(&id) = table.index.get(&f.canonical()) else {
                assert!(!model.live(f) && !model.registered_at.contains_key(&f));
                continue;
            };
            let client = table.live(id).and_then(|l| l.client.as_ref()).map(marker);
            assert_eq!(client, model.clients.get(&f).copied());
            let rng = table.live(id).and_then(|l| l.rng.as_ref()).map(first_draw);
            assert_eq!(rng, model.rngs.get(&f.canonical()).copied());
            let lane = model.lanes.get(&f.canonical()).copied().unwrap_or_default();
            assert_eq!(table.live(id).and_then(|l| l.lane).unwrap_or_default(), lane);
            assert_eq!(table.live(id).is_some_and(|l| l.half_close), model.half_close.contains(&f));
            assert_eq!(table.record(id).registered_at, model.registered_at.get(&f).copied());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random create/lookup/overwrite/release/recreate scripts give the
        /// same observable results on the flow table as on the per-field
        /// tables it replaced, and the live pool holds exactly the flows
        /// with live state.
        #[test]
        fn the_table_matches_the_per_field_tables(
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            let flows: Vec<FourTuple> = (1..=FLOWS as u16).map(flow).collect();
            let mut table = FlowTable::default();
            let mut model = Model::default();
            let mut resolves = 0;
            for op in ops {
                let at = |i: usize| (flows[i], flows[i].canonical());
                match op {
                    Op::Reset => {
                        table.reset();
                        model = Model::default();
                        resolves = 0;
                        continue;
                    }
                    _ => resolves += 1,
                }
                match op {
                    Op::CreateClient(i) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        if !model.clients.contains_key(&f) {
                            model.created += 1;
                            model.clients.insert(f, model.created);
                            table.client_or_create(id).connect_started_ns = Some(model.created);
                        }
                        let client = table.client_or_create(id);
                        prop_assert_eq!(client.connect_started_ns, model.clients.get(&f).copied());
                    }
                    Op::RemoveClient(i) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        let removed = model.clients.remove(&f);
                        model.removed += u64::from(removed.is_some());
                        prop_assert_eq!(table.remove_client(id).as_ref().map(marker), removed);
                    }
                    Op::PutRng(i, seed) => {
                        let (f, key) = at(i);
                        let id = table.resolve(f);
                        let rng = SimRng::seed_from_u64(seed);
                        model.rngs.insert(key, first_draw(&rng));
                        table.live_or_take(id).rng = Some(rng);
                    }
                    Op::TakeRng(i) => {
                        // A checkout: take the stream and put it straight back.
                        let (f, key) = at(i);
                        let id = table.resolve(f);
                        let taken = table.live_mut(id).and_then(|l| l.rng.take());
                        let expected = model.rngs.get(&key).copied();
                        prop_assert_eq!(taken.as_ref().map(first_draw), expected);
                        if let Some(rng) = taken {
                            table.live_or_take(id).rng = Some(rng);
                        }
                    }
                    Op::SetLane(i, ms) => {
                        let (f, key) = at(i);
                        let id = table.resolve(f);
                        model.lanes.insert(key, lane_after(ms));
                        table.live_or_take(id).lane = Some(lane_after(ms));
                    }
                    Op::Release(i) => {
                        let (f, key) = at(i);
                        let id = table.resolve(f);
                        model.rngs.remove(&key);
                        model.lanes.remove(&key);
                        table.update(id, |l| (l.rng, l.lane) = (None, None));
                    }
                    Op::SetConnectPre(i, ms) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        model.connect_pre.insert(f, SimTime::from_millis(ms));
                        table.set_connect_pre(id, SimTime::from_millis(ms));
                    }
                    Op::TakeConnectPre(i) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        prop_assert_eq!(table.take_connect_pre(id), model.connect_pre.remove(&f));
                    }
                    Op::SetHalfClose(i) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        model.half_close.insert(f);
                        table.live_or_take(id).half_close = true;
                    }
                    Op::ClearHalfClose(i) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        model.half_close.remove(&f);
                        table.update(id, |l| l.half_close = false);
                    }
                    Op::SetDnsPending(i, ms) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        let pending = (SimTime::from_millis(ms), format!("q{ms}.example"));
                        model.dns_pending.insert(f, pending.clone());
                        table.live_or_take(id).dns_pending = Some(pending);
                    }
                    Op::TakeDnsPending(i) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        let taken = table.update(id, |l| l.dns_pending.take()).flatten();
                        prop_assert_eq!(taken, model.dns_pending.remove(&f));
                    }
                    Op::Register(i, ms) => {
                        let (f, _) = at(i);
                        let id = table.resolve(f);
                        model.registered_at.insert(f, SimTime::from_millis(ms));
                        table.record_mut(id).registered_at = Some(SimTime::from_millis(ms));
                    }
                    Op::Reset => unreachable!(),
                }
                prop_assert_eq!(table.index_lookups(), resolves);
                check(&table, &model, &flows);
            }
        }
    }
}
