//! The ingress stage: TUN retrieval and parse.
//!
//! This is the app-facing end of the pipeline. Flows start here: the
//! simulated app endpoint (or DNS client) goes into the flow's record in the
//! [flow table](super::flows). When an app writes a packet "into the
//! tunnel", the raw IP bytes are sealed into a pooled slab batch, the
//! `ReaderSim` models the TUN retrieval cost for the configured read
//! strategy, and the slab is scheduled to the relay stage as a
//! `ProcessTunBatch` event (the engine loop coalesces same-instant slabs into
//! larger bursts). Parsing a packet resolves its flow with the one index
//! probe of its event. Packets the egress stage delivers back to the apps
//! re-enter here (`DeliverToApp`, carrying the flow), where the app endpoints
//! consume them and emit their next requests.

use mop_packet::{Endpoint, FourTuple, Packet, PacketView};
use mop_simnet::{BatchPool, SimDuration, SimRng, SimTime, SlabBatch, TimerScheduler};
use mop_tun::{AppEndpoint, DnsClient, FlowKind, FlowSpec, ReaderSim};
use mop_procnet::SocketStateCode;

use super::flows::FlowMeta;
use super::{EngineShared, FlowId, RelayStage, Stage, StageBatch, StageLinks};
use crate::engine::Event;

/// The TUN retrieval + parse stage. See the [module docs](self).
#[derive(Debug)]
pub struct IngressStage {
    /// The TUN read-strategy model (§3.1).
    pub(crate) reader: ReaderSim,
    /// Free list backing the tunnel slab batches: the reader seals retrieved
    /// packets into a pooled slab, the relay parses them by reference, then
    /// the slab is recycled.
    pub(crate) batches: BatchPool,
    /// Sequential source-port pool (single-device flows only).
    pub(crate) next_app_port: u16,
    /// Sequential DNS transaction ids.
    pub(crate) next_dns_id: u16,
}

impl Stage for IngressStage {
    fn name(&self) -> &'static str {
        "ingress"
    }

    /// The MainWorker drains one TUN slab: each packet is parsed zero-copy
    /// straight out of the slab bytes, charged its parse cost (which, under
    /// the saturating model, amortises across the burst), and handed to the
    /// relay. Per-packet semantics — parse, RNG draws, relay decision —
    /// are identical to the old one-event-per-packet path; only the
    /// dispatch granularity changed.
    fn process_batch(&mut self, links: &mut StageLinks<'_>, batch: &mut StageBatch) {
        let StageBatch::Tun(slab) = batch else { return };
        let StageLinks { shared, sched, relay, egress, .. } = links;
        let (Some(relay), Some(egress)) = (relay.as_deref_mut(), egress.as_deref_mut()) else {
            return;
        };
        for i in 0..slab.len() {
            let due = slab.due(i);
            shared.clock.advance_to(due);
            match PacketView::parse(slab.packet(i)) {
                Ok(packet) => {
                    let flow = packet.four_tuple().map(|tuple| shared.flows.resolve(tuple));
                    let parse_cost = Self::parse_cost(shared, flow);
                    let start = shared.worker_step(due, parse_cost);
                    relay.on_packet(shared, egress, sched, start, flow, &packet);
                }
                Err(_) => relay.stats.parse_errors += 1,
            }
        }
    }
}

impl IngressStage {
    /// Creates the stage around a configured reader, with slabs pre-sized
    /// for `batch_size`-packet bursts.
    pub fn new(reader: ReaderSim, batch_size: usize) -> Self {
        Self {
            reader,
            batches: BatchPool::for_packets(batch_size),
            next_app_port: 36_000,
            next_dns_id: 1,
        }
    }

    /// Resets the stage to its just-constructed state, keeping the slab pool
    /// allocation: the reader restarts its poll loop at time zero
    /// and the port/transaction-id counters rewind so a reused stage hands
    /// out the same identifiers a fresh one would.
    pub(crate) fn reset(&mut self) {
        self.reader.reset();
        self.batches.reset_stats();
        self.next_app_port = 36_000;
        self.next_dns_id = 1;
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_app_port;
        self.next_app_port =
            if self.next_app_port >= 64_000 { 36_000 } else { self.next_app_port + 1 };
        port
    }

    /// An app opens the flow described by `spec`: resolve its record, store
    /// the endpoint (TCP) or DNS client and the outcome bookkeeping in it,
    /// register the connection, and inject the opening packet into the
    /// tunnel.
    pub(crate) fn on_flow_start(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        spec: FlowSpec,
    ) {
        // Fleet scenarios pre-assign the source endpoint so the four-tuple is
        // a pure function of the spec; single-device flows draw from the
        // engine's sequential port pool.
        let src = match spec.src {
            Some(src) => src,
            None => Endpoint::v4(10, 0, 0, 2, self.alloc_port()),
        };
        let (id, opening) = match spec.kind {
            FlowKind::Tcp => {
                let flow = FourTuple::new(src, spec.dst);
                let mut app = AppEndpoint::new(
                    spec.uid,
                    &spec.package,
                    flow,
                    vec![0x47; spec.request_bytes.max(1)],
                    spec.close_after,
                );
                let syn = app.syn_packet();
                let id = sh.flows.resolve(flow);
                sh.flows.record_mut(id).app = Some(app);
                relay.conn_table.register(flow, true, spec.uid, SocketStateCode::SynSent);
                if let Some(domain) = &spec.domain {
                    relay.ip_to_domain.insert(spec.dst.addr, domain.clone());
                }
                (id, syn)
            }
            FlowKind::Dns => {
                let resolver = Endpoint::new(sh.net.dns_config().addr, 53);
                let flow = FourTuple::new(src, resolver);
                let dns_id = self.next_dns_id;
                self.next_dns_id = self.next_dns_id.wrapping_add(1).max(1);
                let name = spec.domain.clone().unwrap_or_else(|| "unknown.example".to_string());
                let client = DnsClient::new(spec.uid, &spec.package, src, resolver, dns_id, &name);
                let query = client.query_packet();
                let id = sh.flows.resolve(flow);
                sh.flows.record_mut(id).dns = Some(client);
                relay.conn_table.register(flow, false, spec.uid, SocketStateCode::Close);
                (id, query)
            }
        };
        let record = sh.flows.record_mut(id);
        record.meta = Some(FlowMeta::started(&spec, now));
        record.registered_at = Some(now);
        self.inject_app_packet(sh, relay, sched, now, id, opening);
    }

    /// An app of `flow` wrote a packet into the tunnel: the raw IP bytes are sealed
    /// into a pooled slab batch, the TunReader's retrieval is simulated and
    /// the slab is scheduled to the relay stage. This mirrors the real
    /// datapath — the TUN device hands MopEye bytes, not parsed structures —
    /// and the slab is recycled once the relay has processed it. Each write
    /// seals its own one-packet slab; the engine loop coalesces slabs that
    /// land on the same instant into larger bursts.
    pub(crate) fn inject_app_packet(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimerScheduler<Event>,
        at: SimTime,
        flow: FlowId,
        packet: Packet,
    ) {
        let mut slab = self.batches.get();
        let wire_len = slab.push_with(|data| packet.encode_into(data));
        sh.tun.record_app_write(wire_len);
        let mut rng = sh.checkout_rng(flow);
        let retrieval = self.reader.retrieve(at, &sh.cost, &mut rng);
        sh.ledger.charge("TunReader", retrieval.polling_cpu + sh.cost.tun_read.sample(&mut rng));
        // TunReader puts the packet in the read queue and wakes the selector
        // so the relay's MainWorker notices it (§3.2).
        relay.selector.wakeup();
        let handoff = sh.cost.context_switch.sample(&mut rng);
        sh.checkin_rng(flow, rng);
        let due = retrieval.retrieved_at + handoff;
        slab.stamp_due(due);
        sched.schedule(due, Event::ProcessTunBatch(slab));
    }

    /// The per-packet header-parse cost the relay's MainWorker pays, drawn
    /// from the flow's stream, or the shared one for a packet without a
    /// four-tuple (the parse itself happens zero-copy on the pooled bytes).
    pub(crate) fn parse_cost(sh: &mut EngineShared, flow: Option<FlowId>) -> SimDuration {
        let draw = |rng: &mut SimRng| SimDuration::from_micros(rng.int_inclusive(4, 25));
        let Some(flow) = flow else { return draw(&mut sh.rng) };
        let mut rng = sh.checkout_rng(flow);
        let cost = draw(&mut rng);
        sh.checkin_rng(flow, rng);
        cost
    }

    /// A packet the egress stage wrote for `flow` reaches the app side: DNS
    /// clients consume answers, app endpoints consume data and emit their
    /// next requests back into the tunnel.
    pub(crate) fn on_deliver_to_app(
        &mut self,
        sh: &mut EngineShared,
        relay: &mut RelayStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        packet: Packet,
    ) {
        let record = sh.flows.record_mut(flow);
        if let Some(client) = record.dns.as_mut() {
            if client.handle(&packet) {
                record.finish(now, true);
            }
            return;
        }
        let Some(app) = record.app.as_mut() else { return };
        let responses = app.handle(&packet);
        if let Some(meta) = record.meta.as_mut() {
            meta.bytes_received = app.bytes_received;
            meta.finished_at = now;
            // Only a clean close counts as completion; a reset app stays failed.
            if app.state() == mop_tun::AppState::Done {
                meta.completed = true;
            }
        }
        for (i, response) in responses.into_iter().enumerate() {
            // Consecutive packets from the app leave a few microseconds apart.
            let at = now + SimDuration::from_micros(20 * (i as u64 + 1));
            self.inject_app_packet(sh, relay, sched, at, flow, response);
        }
    }

    /// Recycles a processed tunnel slab.
    pub(crate) fn recycle_batch(&mut self, slab: SlabBatch) {
        self.batches.put(slab);
    }
}
