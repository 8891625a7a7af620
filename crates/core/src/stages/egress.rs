//! The egress stage: TunWriter lanes carrying packets back to the apps.
//!
//! Every packet the relay sends towards an app passes through here: the
//! enqueue cost and the dedicated writer thread's timing are modelled
//! against a [`WriterLane`](crate::tun_writer::WriterLane) — the single
//! device-wide lane under the shared-device discipline, or the connection's
//! own lane (in its flow-table live slot) under the flow-keyed discipline (so
//! a flow's write timing depends only on its own packet train, one of the
//! invariants behind shard-count-independent determinism). The packet itself
//! travels as a scheduled `DeliverToApp` event; the writer only ever sees its
//! wire length.

use mop_packet::Packet;
use mop_simnet::{FaultDecision, SimTime, TimerScheduler};

use super::{EngineShared, FlowId, Stage, StageBatch, StageLinks};
use crate::config::EngineDiscipline;
use crate::engine::Event;
use crate::tun_writer::TunWriter;

/// The TunWriter-lane stage. See the [module docs](self).
#[derive(Debug)]
pub struct EgressStage {
    /// The tunnel writer (schemes + delay statistics).
    pub(crate) writer: TunWriter,
}

impl Stage for EgressStage {
    fn name(&self) -> &'static str {
        "egress"
    }

    /// Writes one outbound batch to the tunnel, draining the batch so the
    /// upstream stage can reclaim its scratch vector. Each packet goes
    /// through `EgressStage::write_to_tunnel` with the batch's
    /// connect-thread flag — per-packet draws and order are identical to the
    /// item-wise path, so batching is invisible to deterministic digests.
    fn process_batch(&mut self, links: &mut StageLinks<'_>, batch: &mut StageBatch) {
        let StageBatch::Outbound { flow, packets, connect_threads_active } = batch else {
            return;
        };
        let (flow, active) = (*flow, *connect_threads_active);
        for (at, packet) in packets.drain(..) {
            self.write_to_tunnel(links.shared, links.sched, at, flow, packet, active);
        }
    }
}

impl EgressStage {
    /// Creates the stage around a configured writer.
    pub fn new(writer: TunWriter) -> Self {
        Self { writer }
    }

    /// Resets the stage to its just-constructed state for the same schemes.
    pub(crate) fn reset(&mut self) {
        self.writer.reset();
    }

    /// Writes a packet of `flow` towards the apps through the TunWriter and schedules
    /// its delivery. The one owned packet travels straight into the delivery
    /// event; the device and the writer only see its wire length.
    ///
    /// Under the shared-device discipline every packet goes through the one
    /// writer-thread timing lane (queue serialisation couples flows, as on a
    /// real handset); `connect_threads_active` adds the socket-connect
    /// threads to the contending writer count. Under the flow-keyed
    /// discipline each connection has its own lane and a fixed
    /// concurrent-writer count.
    pub(crate) fn write_to_tunnel(
        &mut self,
        sh: &mut EngineShared,
        sched: &mut TimerScheduler<Event>,
        now: SimTime,
        flow: FlowId,
        packet: Packet,
        connect_threads_active: bool,
    ) {
        let mut rng = sh.checkout_rng(flow);
        let outcome = match sh.config.discipline {
            EngineDiscipline::SharedDevice => {
                let writers = 1 + usize::from(connect_threads_active);
                self.writer.submit(now, writers, &sh.cost, &mut rng, &mut sh.ledger)
            }
            EngineDiscipline::FlowKeyed => {
                let mut lane = sh.flows.live(flow).and_then(|live| live.lane).unwrap_or_default();
                let outcome =
                    self.writer.submit_lane(&mut lane, now, 2, &sh.cost, &mut rng, &mut sh.ledger);
                sh.flows.live_or_take(flow).lane = Some(lane);
                outcome
            }
        };
        sh.checkin_rng(flow, rng);
        sh.tun.record_relay_write(packet.wire_len());
        let mut deliver_at = outcome.written_at;
        // The data-path fault stage: only payload-bearing TCP segments are
        // eligible (control segments — SYN/ACK, pure ACKs, FINs, RSTs — are
        // never faulted, so handshakes and teardowns stay loss-free and RTT
        // samples stay comparable across loss rates). Each decision comes
        // from the flow's dedicated fault stream keyed by `(seed,
        // four-tuple)`, so any shard partition faults the same segments. The
        // writer already counted the write: a dropped segment consumed the
        // tunnel exactly like a delivered one.
        if packet.tcp().is_some_and(|t| !t.payload.is_empty()) && sh.net.faults_possible() {
            if let Some(wire_flow) = packet.four_tuple() {
                match sh.net.data_fault(wire_flow, deliver_at) {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => return,
                    FaultDecision::Duplicate => {
                        let duplicate = packet.clone();
                        sched.schedule(deliver_at, Event::DeliverToApp { flow, packet: duplicate });
                    }
                    FaultDecision::Delay(extra) => deliver_at += extra,
                }
            }
        }
        sched.schedule(deliver_at, Event::DeliverToApp { flow, packet });
    }
}
