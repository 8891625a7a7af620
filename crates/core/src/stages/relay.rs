//! The relay stage: TCP/UDP/DNS state-machine dispatch.
//!
//! This is the MainWorker's decision core (§2.3, §3.2–3.4 of the paper):
//! each parsed packet view drives the per-connection user-space TCP state
//! machine or UDP association, external connects run in (modelled) blocking
//! socket-connect threads that take the RTT timestamps, the lazy mapper
//! attributes flows to apps off the packet path, and DNS queries are
//! relayed and measured in temporary blocking threads. Outbound packets are
//! handed to the egress stage's TunWriter lanes; finished measurements are
//! folded into the sink.
//!
//! The stage also owns the per-connection *timers*: when the engine runs
//! with an idle timeout, every relayed segment re-arms a cancellable timer
//! on the scheduler (O(1) schedule + cancel on the timing wheel), and a
//! timer that actually fires reaps the silent connection.
//! Per-flow state lives in the [flow table](super::flows): handlers take a
//! [`FlowId`] and read its four-tuple only to reach the layers below.

use std::collections::HashMap;
use std::net::IpAddr;

use mop_packet::{
    DnsMessage, Endpoint, Packet, PacketBuilder, PacketView, SackBlocks, TransportView,
};
use mop_procnet::{
    CachedMapper, ConnectionTable, EagerMapper, LazyMapper, MappingStats, MappingStrategy,
    PackageManager, SocketStateCode,
};
use mop_simnet::{
    Selector, SimDuration, SimTime, SocketMode, SocketSet, SocketState, TimerHandle,
    TimerScheduler,
};
use mop_tcpstack::{RecoveryState, RelayAction, SegmentVerdict, TcpStateMachine, UdpRegistry};

use super::{EgressStage, EngineShared, FlowId, SinkStage, Stage, StageBatch, StageLinks};
use crate::config::{EngineDiscipline, ProtectMode, TimestampMode};
use crate::engine::Event;
use crate::stats::{RelayStats, RttSample, SampleKind};

/// Salt for the throwaway streams that absorb variable-draw-count work
/// (packet-to-app mapping walks the whole connection table, whose size
/// depends on co-resident flows; those draws must not advance a flow's main
/// stream or the stream would become partition-dependent).
const MAPPING_KEY_SALT: u64 = 0x6d61_705f_6b65_7973; // "map_keys"

/// The configured packet-to-app mapper.
pub(crate) enum Mapper {
    /// Parse `/proc/net` on every packet.
    Eager(EagerMapper),
    /// Parse on miss, serve repeats from a cache.
    Cached(CachedMapper),
    /// MopEye's choice: map once per connection, off the packet path.
    Lazy(LazyMapper),
}

impl std::fmt::Debug for Mapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mapper::Eager(_) => write!(f, "Mapper::Eager"),
            Mapper::Cached(_) => write!(f, "Mapper::Cached"),
            Mapper::Lazy(_) => write!(f, "Mapper::Lazy"),
        }
    }
}

impl Mapper {
    pub(crate) fn stats(&self) -> MappingStats {
        match self {
            Mapper::Eager(m) => m.stats().clone(),
            Mapper::Cached(m) => m.stats().clone(),
            Mapper::Lazy(m) => m.stats().clone(),
        }
    }
}

/// The TCP/UDP/DNS dispatch stage. See the [module docs](self).
#[derive(Debug)]
pub struct RelayStage {
    /// UDP associations and DNS transaction tracking.
    pub(crate) udp: UdpRegistry,
    /// The shard's `/proc/net` view.
    pub(crate) conn_table: ConnectionTable,
    /// UID → package resolution.
    pub(crate) packages: PackageManager,
    /// The configured packet-to-app mapper.
    pub(crate) mapper: Mapper,
    /// External sockets (the regular-socket side of the splice).
    pub(crate) sockets: SocketSet,
    /// The selector the MainWorker blocks on.
    pub(crate) selector: Selector,
    /// Relay counters.
    pub(crate) stats: RelayStats,
    /// Destination-address → domain hints (from specs and DNS answers).
    pub(crate) ip_to_domain: HashMap<IpAddr, String>,
    /// Reusable scratch for outbound packet batches headed to egress, so the
    /// steady-state segment loop allocates nothing.
    outbound_scratch: Vec<(SimTime, Packet)>,
    /// Reusable scratch for sample batches headed to the sink.
    sample_scratch: Vec<(FlowId, RttSample)>,
}

impl Stage for RelayStage {
    fn name(&self) -> &'static str {
        "relay"
    }

    /// An outbound batch passes through the relay on its way to egress: the
    /// relay owns the connect-thread census (tunnel-write contention,
    /// §3.5.1), so it stamps the batch's flag and hands the batch to the
    /// egress link.
    fn process_batch(&mut self, links: &mut StageLinks<'_>, batch: &mut StageBatch) {
        let StageBatch::Outbound { connect_threads_active, .. } = batch else { return };
        *connect_threads_active = links.shared.flows.connects_pending();
        let Some(egress) = links.egress.take() else { return };
        egress.process_batch(links, batch);
    }
}

impl RelayStage {
    /// Creates the stage for the given mapping strategy and protect mode.
    pub fn new(mapping: MappingStrategy, protect: ProtectMode) -> Self {
        let mut sockets = SocketSet::new();
        if protect == ProtectMode::DisallowedApplication {
            sockets.set_disallowed_application(true);
        }
        let mapper = match mapping {
            MappingStrategy::Eager => Mapper::Eager(EagerMapper::new()),
            MappingStrategy::Cached => Mapper::Cached(CachedMapper::new()),
            MappingStrategy::Lazy => Mapper::Lazy(LazyMapper::new()),
        };
        Self {
            udp: UdpRegistry::new(),
            conn_table: ConnectionTable::new(),
            packages: PackageManager::new(),
            mapper,
            sockets,
            selector: Selector::new(),
            stats: RelayStats::default(),
            ip_to_domain: HashMap::new(),
            outbound_scratch: Vec::new(),
            sample_scratch: Vec::new(),
        }
    }

    /// Resets the stage to its just-constructed state, keeping the table,
    /// pool and scratch allocations. The mapper is rebuilt fresh for the same
    /// strategy (mappers are a couple of empty tables); the socket set keeps
    /// its protect-mode configuration and pooled read buffers.
    pub(crate) fn reset(&mut self) {
        self.udp.reset();
        self.conn_table.reset();
        self.packages.reset();
        self.mapper = match &self.mapper {
            Mapper::Eager(_) => Mapper::Eager(EagerMapper::new()),
            Mapper::Cached(_) => Mapper::Cached(CachedMapper::new()),
            Mapper::Lazy(_) => Mapper::Lazy(LazyMapper::new()),
        };
        self.sockets.reset();
        self.selector.reset();
        self.stats = RelayStats::default();
        self.ip_to_domain.clear();
        self.outbound_scratch.clear();
        self.sample_scratch.clear();
    }

    /// Routes a burst of `flow`'s outbound packets to egress through the
    /// batch path (via the relay's own [`Stage::process_batch`], which stamps
    /// the connect-thread flag), then reclaims the scratch vector.
    fn emit_outbound(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        flow: FlowId,
        packets: Vec<(SimTime, Packet)>,
    ) {
        let mut batch = StageBatch::Outbound { flow, packets, connect_threads_active: false };
        let mut links = StageLinks { shared: sh, sched, relay: None, egress: Some(egress) };
        self.process_batch(&mut links, &mut batch);
        if let StageBatch::Outbound { mut packets, .. } = batch {
            packets.clear();
            self.outbound_scratch = packets;
        }
    }

    /// Routes one finished measurement of `flow` to the sink through the
    /// batch path, then reclaims the scratch vector.
    fn emit_sample(
        &mut self,
        sh: &mut EngineShared,
        sink: &mut SinkStage,
        sched: &mut TimerScheduler<Event>,
        flow: FlowId,
        sample: RttSample,
    ) {
        let mut samples = std::mem::take(&mut self.sample_scratch);
        samples.push((flow, sample));
        let mut batch = StageBatch::Samples(samples);
        let mut links = StageLinks { shared: sh, sched, relay: None, egress: None };
        sink.process_batch(&mut links, &mut batch);
        if let StageBatch::Samples(samples) = batch {
            // The sink drained the batch; keep the allocation for next time.
            self.sample_scratch = samples;
        }
    }

    /// The MainWorker's relay decision, working entirely on borrowed views —
    /// no payload is copied unless data actually has to cross to the socket
    /// channel. `flow` is the packet's record, resolved once at parse
    /// (`None` for a packet without a four-tuple).
    pub(crate) fn on_packet(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: Option<FlowId>,
        packet: &PacketView<'_>,
    ) {
        if matches!(packet.transport(), TransportView::Other(..)) {
            // A well-formed packet of an unsupported transport: forwarded
            // opaquely, nothing to measure and nothing to count as an error.
            return;
        }
        let Some(flow) = flow else {
            self.stats.parse_errors += 1;
            return;
        };
        match packet.transport() {
            TransportView::Tcp(segment) => {
                let client = sh.flows.client_or_create(flow);
                let (packets, actions, verdict) =
                    client.machine_mut().on_tunnel_segment_view(segment);
                match verdict {
                    SegmentVerdict::Syn => self.stats.syns += 1,
                    SegmentVerdict::Data(len) => {
                        self.stats.data_segments_out += 1;
                        self.stats.bytes_out += len as u64;
                    }
                    SegmentVerdict::PureAckDiscarded => self.stats.pure_acks_discarded += 1,
                    SegmentVerdict::Fin => self.stats.fins += 1,
                    SegmentVerdict::Rst => self.stats.rsts += 1,
                    SegmentVerdict::Retransmission | SegmentVerdict::OutOfState => {}
                }
                // Discarded pure ACKs still drive loss recovery: the app's
                // cumulative ACK (and any SACK blocks) advance the sender
                // scoreboard and can trigger a fast retransmit. On networks
                // that cannot fault, no recovery state exists and this is a
                // single `None` check.
                if matches!(verdict, SegmentVerdict::PureAckDiscarded) {
                    self.on_recovery_ack(
                        sh,
                        egress,
                        sched,
                        now,
                        flow,
                        segment.ack(),
                        segment.sack_blocks(),
                    );
                }
                for pkt in packets {
                    self.write_out(sh, egress, sched, now, flow, pkt);
                }
                for action in actions {
                    self.apply_action(sh, egress, sched, now, flow, action);
                }
                // A torn-down connection's tail (the app's final ACK after
                // RemoveClient already ran) lands on a freshly created
                // machine and is discarded; the machine is still in Listen
                // because only a SYN moves it off. Drop that zombie client
                // and the live state the tail packet recreated, so a fleet
                // run's memory tracks live connections. (Flow-keyed only:
                // the single-device engine keeps its historical behaviour
                // bit-for-bit.)
                if sh.config.discipline == EngineDiscipline::FlowKeyed
                    && sh
                        .flows
                        .client_mut(flow)
                        .is_some_and(|c| c.state() == mop_tcpstack::TcpState::Listen)
                {
                    Self::disarm_timers(sh, sched, flow);
                    sh.flows.remove_client(flow);
                    Self::release_flow_state(sh, flow);
                }
                // Every relayed segment is activity: re-arm the connection's
                // cancellable idle timer (a no-op unless configured).
                Self::rearm_idle(sh, sched, now, flow);
                Self::update_memory_ledger(sh);
            }
            TransportView::Udp(datagram) => {
                self.stats.udp_datagrams += 1;
                let assoc = self.udp.get_or_create(sh.flows.key(flow));
                let transaction = assoc.on_outgoing(datagram.payload(), now.as_nanos()).cloned();
                if let Some(tx) = transaction {
                    self.stats.dns_queries += 1;
                    self.start_dns_measurement(sh, sched, now, flow, &tx);
                }
            }
            TransportView::Other(..) => unreachable!("handled before the four-tuple guard"),
        }
    }

    /// Routes one outbound packet of `flow` to the egress stage.
    fn write_out(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        packet: Packet,
    ) {
        let connect_threads_active = sh.flows.connects_pending();
        egress.write_to_tunnel(sh, sched, now, flow, packet, connect_threads_active);
    }

    fn apply_action(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        action: RelayAction,
    ) {
        match action {
            RelayAction::ConnectExternal { dst } => self.start_connect(sh, sched, now, flow, dst),
            RelayAction::RelayData { bytes } => {
                self.relay_data(sh, egress, sched, now, flow, &bytes)
            }
            RelayAction::HalfCloseExternal => self.half_close(sh, egress, sched, now, flow),
            RelayAction::CloseExternal => self.close_external(sh, flow),
            RelayAction::RemoveClient => self.remove_client(sh, sched, now, flow),
        }
    }

    /// The socket-connect thread (§2.4): blocking connect with clean
    /// timestamps, then lazy mapping and selector registration.
    fn start_connect(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        dst: Endpoint,
    ) {
        let mut rng = sh.checkout_rng(flow);
        let spawn = sh.cost.thread_spawn.sample(&mut rng);
        sh.ledger.charge("ConnectThreads", spawn);
        let mut t = now + spawn;
        if sh.config.protect == ProtectMode::PerSocket {
            let protect = sh.cost.protect_call.sample(&mut rng);
            sh.ledger.charge("ConnectThreads", protect);
            t += protect;
        }
        sh.checkin_rng(flow, rng);
        // Flow-keyed runs bind the external socket to the app flow's source,
        // so the external four-tuple (which keys the network's per-flow RNG
        // stream and the wire tap) is a pure function of the flow rather
        // than of socket-creation order.
        let socket = match sh.config.discipline {
            EngineDiscipline::SharedDevice => self.sockets.create(SocketMode::Blocking),
            EngineDiscipline::FlowKeyed => {
                self.sockets.create_bound(SocketMode::Blocking, sh.flows.key(flow).src)
            }
        };
        if sh.config.protect == ProtectMode::PerSocket {
            self.sockets.protect(socket);
        }
        // Pre-connect timestamp, taken immediately before connect() (§4.1.1).
        let pre = sh.timestamp(t);
        sh.flows.set_connect_pre(flow, pre);
        let outcome = self.sockets.connect(&mut sh.net, socket, dst, t);
        sh.flows.record_mut(flow).socket = Some(socket);
        if let Some(client) = sh.flows.client_mut(flow) {
            client.connect_started_ns = Some(t.as_nanos());
        }
        sched.schedule(outcome.completed_at, Event::ExternalConnected(flow));
    }

    /// The external connect for `flow` completed (successfully or not):
    /// take the post-connect timestamp, map the flow to its app, record the
    /// RTT sample at the sink, and finish the app-side handshake.
    pub(crate) fn on_external_connected(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sink: &mut SinkStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        let Some(socket) = sh.flows.record(flow).socket else { return };
        let tuple = sh.flows.key(flow);
        let state = self.sockets.poll_connect(socket, now);
        let pre = sh.flows.take_connect_pre(flow).unwrap_or(now);
        let mut rng = sh.checkout_rng(flow);
        // Post-connect timestamp: exact in the blocking connect thread, or
        // delayed by the selector dispatch when taken from the event loop.
        let mut post = now;
        if sh.config.timestamp_mode == TimestampMode::SelectorNotification {
            post += sh.cost.sample_dispatch_delay(&mut rng);
        }
        let post = sh.timestamp(post);
        let outcome = self.sockets.connect_outcome(socket);
        match state {
            SocketState::Connected => {
                self.stats.connects_ok += 1;
                // Register the channel with the selector only after the
                // internal handshake work is done (§3.4). The cost is drawn
                // from the flow's stream before the mapper runs, because the
                // mapper's draw count depends on the co-resident connection
                // table and must not advance this stream.
                let register = sh.cost.selector_register.sample(&mut rng);
                sh.checkin_rng(flow, rng);
                // Lazy mapping happens here, in the connect thread, after the
                // handshake with the server is complete (§3.3).
                let (uid, package) = self.map_flow(sh, flow, now);
                if let Some(client) = sh.flows.client_mut(flow) {
                    client.connect_finished_ns = Some(now.as_nanos());
                    // Only networks that can fault the data path get recovery
                    // state; clean runs carry no sender scoreboard, draw no
                    // randomness and arm no retransmission timers. The
                    // measured connect RTT seeds the RFC 6298 estimator.
                    if sh.net.faults_possible() {
                        client.recovery = Some(RecoveryState::new(
                            sh.config.congestion,
                            client.connect_duration_ns(),
                        ));
                    }
                }
                sh.ledger.charge("ConnectThreads", register);
                self.selector.register(socket);
                self.sockets.set_mode(socket, SocketMode::NonBlocking);
                self.conn_table.set_state(tuple, SocketStateCode::Established);
                // Record the per-app RTT sample.
                let tcpdump_ms = self
                    .sockets
                    .flow(socket)
                    .and_then(|f| sh.net.tap().handshake_rtt(f))
                    .map(|d| d.as_millis_f64());
                let sample = RttSample {
                    kind: SampleKind::Tcp,
                    flow: tuple,
                    uid,
                    package,
                    domain: self.domain_for(sh, tuple.dst.addr),
                    measured_ms: (post - pre).as_millis_f64(),
                    true_ms: outcome.map(|o| o.true_rtt.as_millis_f64()).unwrap_or(0.0),
                    tcpdump_ms,
                    at: now,
                };
                self.emit_sample(sh, sink, sched, flow, sample);
                // Complete the handshake with the app (§2.3).
                self.drive_machine(sh, egress, sched, now, flow, |m| m.on_external_connected());
            }
            SocketState::ConnectFailed { refused } => {
                sh.checkin_rng(flow, rng);
                self.stats.connects_failed += 1;
                let failed = |m: &mut TcpStateMachine| m.on_external_connect_failed(refused);
                self.drive_machine(sh, egress, sched, now, flow, failed);
                sh.flows.record_mut(flow).finish(now, false);
            }
            _ => sh.checkin_rng(flow, rng),
        }
    }

    fn map_flow(
        &mut self,
        sh: &mut EngineShared,
        flow: FlowId,
        now: SimTime,
    ) -> (Option<u32>, Option<String>) {
        let record = sh.flows.record(flow);
        let (tuple, registered_at) = (record.flow, record.registered_at.unwrap_or(now));
        // The mapper's draw count scales with the connection table (a
        // `/proc/net` parse samples a cost per entry), and the table holds
        // whatever flows happen to be co-resident. Under the flow-keyed
        // discipline those draws come from a throwaway stream derived for
        // this flow, so they cannot perturb any flow's main stream; only the
        // CPU ledger sees the variance.
        let mut keyed_rng;
        let rng: &mut mop_simnet::SimRng = match sh.config.discipline {
            EngineDiscipline::SharedDevice => &mut sh.rng,
            EngineDiscipline::FlowKeyed => {
                keyed_rng = mop_simnet::SimRng::seed_from_u64(
                    sh.config.seed ^ tuple.canonical().stable_hash() ^ MAPPING_KEY_SALT,
                );
                &mut keyed_rng
            }
        };
        let outcome = match &mut self.mapper {
            Mapper::Eager(m) => m.map(&self.conn_table, &sh.cost, rng, tuple),
            Mapper::Cached(m) => m.map(&self.conn_table, &sh.cost, rng, tuple),
            Mapper::Lazy(m) => m.map(&self.conn_table, &sh.cost, rng, tuple, registered_at, now),
        };
        let lookup_cost = outcome
            .uid
            .map(|_| SimDuration::from_millis_f64(sh.cost.package_lookup.sample_ms(rng)));
        let charge_to = match sh.config.mapping {
            MappingStrategy::Lazy => "ConnectThreads",
            _ => "MainWorker",
        };
        sh.ledger.charge(charge_to, outcome.cpu_cost);
        let package = outcome.uid.and_then(|uid| {
            sh.ledger.charge(charge_to, lookup_cost.unwrap_or(SimDuration::ZERO));
            self.packages.name_for_uid_cached(uid)
        });
        (outcome.uid, package)
    }

    fn relay_data(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        bytes: &[u8],
    ) {
        if sh.config.content_inspection {
            let mut rng = sh.checkout_rng(flow);
            let inspect = sh.cost.sample_content_inspection(bytes.len(), &mut rng);
            sh.checkin_rng(flow, rng);
            sh.ledger.charge("Inspection", inspect);
        }
        let Some(socket) = sh.flows.record(flow).socket else { return };
        if !matches!(self.sockets.state(socket), SocketState::Connected | SocketState::HalfClosed)
        {
            return;
        }
        self.sockets.buffer_write(socket, bytes.len());
        self.sockets.flush_writes(&mut sh.net, socket, now);
        // The socket write completes locally; acknowledge the app's data.
        self.drive_machine(sh, egress, sched, now, flow, |m| m.on_external_write_complete());
        if let Some(ready_at) = self.sockets.next_read_ready_at(socket) {
            sched.schedule(ready_at.max(now), Event::SocketReadable(flow));
        }
    }

    /// Response data became readable on the external socket: read it from
    /// the pooled buffer, segment it towards the app, and keep the read loop
    /// scheduled.
    pub(crate) fn on_socket_readable(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        let Some(socket) = sh.flows.record(flow).socket else { return };
        // The socket layer hands out a pooled buffer for the readable bytes,
        // so the read loop performs no per-read allocation in steady state.
        let data = self.sockets.take_readable_pooled(socket, now);
        let total = data.len();
        if total > 0 {
            let mut rng = sh.checkout_rng(flow);
            if sh.config.content_inspection {
                let inspect = sh.cost.sample_content_inspection(total, &mut rng);
                sh.ledger.charge("Inspection", inspect);
            }
            let segment_cost = SimDuration::from_micros(rng.int_inclusive(10, 60));
            sh.checkin_rng(flow, rng);
            // Segmenting server data back towards the app is MainWorker
            // work: under the saturating model it queues behind the backlog
            // and, when backlogged, amortises across the burst.
            let start = sh.worker_step(now, segment_cost);
            let mut arm_rto = None;
            if let Some(client) = sh.flows.client_mut(flow) {
                let packets = client.machine_mut().on_external_data(&data);
                // On fault-capable networks, register every payload-bearing
                // segment with the sender scoreboard before it leaves: the
                // retransmission timer must cover data from the moment it is
                // handed to egress, not from when a loss is noticed.
                if let Some(recovery) = client.recovery.as_mut() {
                    for pkt in &packets {
                        if let Some(tcp) = pkt.tcp() {
                            if !tcp.payload.is_empty() {
                                recovery.on_data_sent(tcp.seq, &tcp.payload, start.as_nanos());
                            }
                        }
                    }
                    if recovery.has_inflight() && client.timers.rto().is_none() {
                        arm_rto = Some(recovery.rto_ns());
                    }
                }
                self.stats.data_segments_in += packets.len() as u64;
                self.stats.bytes_in += total as u64;
                let mut scratch = std::mem::take(&mut self.outbound_scratch);
                scratch.extend(packets.into_iter().map(|pkt| (start, pkt)));
                self.emit_outbound(sh, egress, sched, flow, scratch);
            }
            if let Some(rto_ns) = arm_rto {
                Self::arm_rto_at(sh, sched, flow, start + SimDuration::from_nanos(rto_ns));
            }
        }
        self.sockets.recycle_buffer(data);
        if let Some(next) = self.sockets.next_read_ready_at(socket) {
            sched.schedule(next, Event::SocketReadable(flow));
        } else if sh.flows.live(flow).is_some_and(|live| live.half_close) {
            self.finish_half_close(sh, egress, sched, now, flow);
        }
    }

    fn half_close(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        let Some(socket) = sh.flows.record(flow).socket else { return };
        self.sockets.half_close(socket);
        if self.sockets.read_exhausted(socket) {
            self.finish_half_close(sh, egress, sched, now, flow);
        } else {
            sh.flows.live_or_take(flow).half_close = true;
        }
    }

    /// The half-close write event: close the external connection and send a
    /// FIN to the app (§2.3, socket-write handling).
    fn finish_half_close(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        sh.flows.update(flow, |live| live.half_close = false);
        self.close_socket(sh, flow);
        self.drive_machine(sh, egress, sched, now, flow, |m| m.on_external_closed(false));
    }

    /// Feeds one socket-side event into `flow`'s state machine, if its
    /// client is live, and writes the packets the machine answers with.
    fn drive_machine(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        event: impl FnOnce(&mut TcpStateMachine) -> Vec<Packet>,
    ) {
        let Some(client) = sh.flows.client_mut(flow) else { return };
        for pkt in event(client.machine_mut()) {
            self.write_out(sh, egress, sched, now, flow, pkt);
        }
    }

    /// Closes `flow`'s external socket, if it has one, and stops selecting on
    /// it.
    fn close_socket(&mut self, sh: &EngineShared, flow: FlowId) {
        if let Some(socket) = sh.flows.record(flow).socket {
            self.sockets.close(socket);
            self.selector.deregister(socket);
        }
    }

    fn close_external(&mut self, sh: &EngineShared, flow: FlowId) {
        self.close_socket(sh, flow);
        self.conn_table.remove(sh.flows.key(flow));
    }

    fn remove_client(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        Self::disarm_timers(sh, sched, flow);
        self.teardown(sh, now, flow, true);
        Self::update_memory_ledger(sh);
    }

    /// Drops `flow`'s client, connection-table row and keyed state, and
    /// records how the flow ended.
    fn teardown(&mut self, sh: &mut EngineShared, now: SimTime, flow: FlowId, completed: bool) {
        sh.flows.remove_client(flow);
        let record = sh.flows.record_mut(flow);
        self.conn_table.remove(record.flow);
        record.finish(now, completed);
        Self::release_flow_state(sh, flow);
    }

    /// Releases a finished flow's keyed stochastic state (RNG stream, writer
    /// lane, network context), so shard memory is bounded by *concurrent*
    /// flows, not by every flow a fleet run has ever seen.
    ///
    /// Safe for determinism: if a stray late packet recreates the state, the
    /// fresh stream restarts from the flow's seed — still a pure function of
    /// `(seed, four-tuple)`, so every shard count recreates it identically.
    fn release_flow_state(sh: &mut EngineShared, flow: FlowId) {
        if sh.config.discipline == EngineDiscipline::FlowKeyed {
            sh.flows.update(flow, |live| (live.rng, live.lane) = (None, None));
            sh.net.release_flow(sh.flows.key(flow));
        }
    }

    // ----- per-connection timers ------------------------------------------

    /// Re-arms `flow`'s cancellable idle timer: O(1) cancel of the
    /// superseded timer plus O(1) schedule of the new deadline. A no-op
    /// unless the engine runs with an idle timeout.
    ///
    /// Only *live* connections carry a timer: a machine still in `Listen`
    /// (a zombie recreated by a torn-down connection's tail ACK) or in a
    /// terminal state is not mid-life relay work, so arming it would both
    /// waste a timer and risk a late fire flipping a completed flow's
    /// outcome.
    fn rearm_idle(
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        let Some(timeout) = sh.config.idle_timeout else { return };
        let Some(client) = sh.flows.client_mut(flow) else { return };
        let state = client.state();
        if state == mop_tcpstack::TcpState::Listen || state.is_terminal() {
            if let Some(token) = client.timers.disarm_idle() {
                sched.cancel(TimerHandle::from_token(token));
            }
            return;
        }
        let handle = sched.schedule(now + timeout, Event::IdleTimeout(flow));
        if let Some(superseded) = client.timers.arm_idle(handle.token()) {
            sched.cancel(TimerHandle::from_token(superseded));
        }
    }

    /// Disarms (and cancels) both of `flow`'s timers, if armed. Teardown
    /// paths use this so no timer can fire into freed per-flow state.
    fn disarm_timers(sh: &mut EngineShared, sched: &mut TimerScheduler<Event>, flow: FlowId) {
        if let Some(client) = sh.flows.client_mut(flow) {
            let tokens = [client.timers.disarm_idle(), client.timers.disarm_rto()];
            for token in tokens.into_iter().flatten() {
                sched.cancel(TimerHandle::from_token(token));
            }
        }
    }

    /// A connection's idle timer fired: the app has relayed nothing for the
    /// configured timeout, so reap the connection — close the external
    /// socket, drop the client and its live state, and mark the flow
    /// failed.
    pub(crate) fn on_idle_timeout(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        let Some(client) = sh.flows.client_mut(flow) else { return };
        // The firing timer is the armed one; a superseded timer was
        // cancelled at re-arm and never reaches here.
        client.timers.disarm_idle();
        // Reap only mid-life connections: a zombie in `Listen` or a machine
        // in a terminal state has nothing left to relay, and flipping its
        // flow's outcome would corrupt a completed flow.
        let state = client.state();
        if state == mop_tcpstack::TcpState::Listen || state.is_terminal() {
            return;
        }
        // The reaped connection may still carry an armed retransmission
        // timer; cancel it so it cannot fire into the freed state.
        if let Some(token) = client.timers.disarm_rto() {
            sched.cancel(TimerHandle::from_token(token));
        }
        self.close_socket(sh, flow);
        self.teardown(sh, now, flow, false);
        self.stats.idle_reaped += 1;
        Self::update_memory_ledger(sh);
    }

    // ----- loss recovery --------------------------------------------------

    /// (Re-)arms `flow`'s retransmission timer at `at`, cancelling any
    /// superseded deadline (O(1) on the timing wheel).
    fn arm_rto_at(
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        flow: FlowId,
        at: SimTime,
    ) {
        let Some(client) = sh.flows.client_mut(flow) else { return };
        let handle = sched.schedule(at, Event::RtoTimeout(flow));
        if let Some(superseded) = client.timers.arm_rto(handle.token()) {
            sched.cancel(TimerHandle::from_token(superseded));
        }
    }

    /// Feeds an app ACK (cumulative edge plus any SACK blocks) into `flow`'s
    /// sender scoreboard, emitting fast retransmits and managing the RTO
    /// deadline per RFC 6298. On clean networks no recovery state exists and
    /// this is a single `None` check.
    #[allow(clippy::too_many_arguments)]
    fn on_recovery_ack(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        ack: u32,
        sack: Option<SackBlocks>,
    ) {
        let Some(client) = sh.flows.client_mut(flow) else { return };
        let Some(recovery) = client.recovery.as_mut() else { return };
        let mut reaction = recovery.on_ack(ack, sack, now.as_nanos());
        let rto_ns = recovery.rto_ns();
        // Fast retransmits replay through the machine's immutable path — the
        // sequence space does not advance — paced by cwnd via each
        // retransmit's delay.
        let resend: Vec<(SimTime, Packet)> = reaction
            .retransmits
            .drain(..)
            .map(|r| {
                let at = now + SimDuration::from_nanos(r.delay_ns);
                (at, client.machine().retransmit_data(r.seq, r.payload))
            })
            .collect();
        if reaction.all_acked {
            // Everything in flight is acknowledged: the RTO timer dies.
            if let Some(token) = client.timers.disarm_rto() {
                sched.cancel(TimerHandle::from_token(token));
            }
        } else if reaction.advanced || reaction.fast_retransmit {
            // New progress (or a retransmit) re-bases the deadline on the
            // current, sample-updated RTO.
            Self::arm_rto_at(sh, sched, flow, now + SimDuration::from_nanos(rto_ns));
        }
        self.stats.retransmits += resend.len() as u64;
        self.stats.fast_retransmits += u64::from(reaction.fast_retransmit);
        self.stats.sacked_segments += u64::from(reaction.newly_sacked);
        if !resend.is_empty() {
            let mut scratch = std::mem::take(&mut self.outbound_scratch);
            scratch.extend(resend);
            self.emit_outbound(sh, egress, sched, flow, scratch);
        }
    }

    /// `flow`'s retransmission timer fired with data still in flight: back
    /// off the RTO (RFC 6298 §5.5), resend the earliest unacknowledged
    /// segment, and re-arm at the doubled deadline.
    pub(crate) fn on_rto_timeout(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
    ) {
        let Some(client) = sh.flows.client_mut(flow) else { return };
        // The firing timer is the armed one; a superseded timer was
        // cancelled at re-arm and never reaches here.
        client.timers.disarm_rto();
        let Some(recovery) = client.recovery.as_mut() else { return };
        let Some(rt) = recovery.on_rto(now.as_nanos()) else {
            // Raced with the final ACK: nothing left in flight.
            return;
        };
        let rto = SimDuration::from_nanos(recovery.rto_ns());
        let pkt = client.machine().retransmit_data(rt.seq, rt.payload);
        Self::arm_rto_at(sh, sched, flow, now + rto);
        self.stats.rto_fires += 1;
        self.stats.retransmits += 1;
        self.write_out(sh, egress, sched, now, flow, pkt);
    }

    // ----- DNS ------------------------------------------------------------

    fn start_dns_measurement(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        tx: &mop_tcpstack::DnsTransaction,
    ) {
        let (id, name) = (tx.id, tx.name.as_str());
        let tuple = sh.flows.key(flow);
        // The whole DNS processing runs in a temporary blocking-mode thread
        // (§2.4): socket set-up, then a blocking send/receive pair.
        let mut rng = sh.checkout_rng(flow);
        let spawn = sh.cost.thread_spawn.sample(&mut rng);
        sh.checkin_rng(flow, rng);
        sh.ledger.charge("DnsThreads", spawn);
        let send_at = now + spawn;
        let outcome = sh.net.dns_lookup(tuple.src, name, send_at);
        let sent = sh.timestamp(send_at);
        sh.flows.live_or_take(flow).dns_pending = Some((sent, name.to_string()));
        for addr in &outcome.addrs {
            self.ip_to_domain.insert(IpAddr::V4(*addr), name.to_string());
        }
        let Some(response_at) = outcome.response_at else {
            // Query lost: the app sees a timeout; nothing is measured.
            sh.flows.record_mut(flow).finish(send_at, false);
            return;
        };
        // Build the response datagram the relay writes back to the app.
        let query = DnsMessage::query(id, name);
        let response = if outcome.nxdomain {
            DnsMessage::nxdomain(&query)
        } else {
            DnsMessage::answer(&query, &outcome.addrs, 300)
        };
        let to_app = PacketBuilder::new(tuple.dst, tuple.src).dns(&response);
        sched.schedule(response_at, Event::DnsResponse { flow, packet: to_app });
    }

    /// The DNS response for `flow` arrived: record the DNS RTT sample at the
    /// sink and relay the answer to the app.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_dns_response(
        &mut self,
        sh: &mut EngineShared,
        egress: &mut EgressStage,
        sink: &mut SinkStage,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        packet: Packet,
    ) {
        let Some((sent_ts, name)) = sh.flows.update(flow, |live| live.dns_pending.take()).flatten()
        else {
            return;
        };
        let tuple = sh.flows.key(flow);
        let post = sh.timestamp(now);
        let uid = self.conn_table.uid_of(tuple);
        let package = uid.and_then(|u| self.packages.name_for_uid_cached(u));
        let tcpdump_ms = sh.net.tap().dns_rtt(tuple).map(|d| d.as_millis_f64());
        let sample = RttSample {
            kind: SampleKind::Dns,
            flow: tuple,
            uid,
            package,
            domain: Some(name),
            measured_ms: (post - sent_ts).as_millis_f64(),
            true_ms: tcpdump_ms.unwrap_or_else(|| (post - sent_ts).as_millis_f64()),
            tcpdump_ms,
            at: now,
        };
        self.emit_sample(sh, sink, sched, flow, sample);
        // Forward the answer to the app.
        self.write_out(sh, egress, sched, now, flow, packet);
        // The DNS exchange is complete; its live state will not be used
        // again (the response delivery draws nothing).
        Self::release_flow_state(sh, flow);
    }

    // ----- misc -----------------------------------------------------------

    fn domain_for(&self, sh: &EngineShared, addr: IpAddr) -> Option<String> {
        if let Some(d) = self.ip_to_domain.get(&addr) {
            return Some(d.clone());
        }
        sh.net.server_for(addr).and_then(|s| s.domains.first().cloned())
    }

    fn update_memory_ledger(sh: &mut EngineShared) {
        // Each live client holds a 64 KiB read and a 64 KiB write buffer
        // (§3.4); the engine itself has a fixed footprint. Content inspection
        // keeps reassembled flow buffers that dwarf the relay's own state.
        let clients = sh.flows.live_clients();
        let base = 6 * 1024 * 1024;
        let buffers = clients * 2 * 65_535;
        sh.ledger.set_memory("relay", base + buffers);
        if sh.config.content_inspection {
            sh.ledger.set_memory("inspection", 120 * 1024 * 1024 + clients * 1024 * 1024);
        }
    }
}
