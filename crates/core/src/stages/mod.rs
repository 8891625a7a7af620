//! The engine datapath, decomposed into explicit pipeline stages.
//!
//! The relay used to be one 1,300-line event-loop module; it is now four
//! stages behind a small [`Stage`] trait, with `engine.rs` reduced to the
//! loop that drains the timing wheel and routes events between them:
//!
//! ```text
//!             ┌─────────┐   parsed    ┌─────────┐  packets   ┌─────────┐
//!  TUN ──────▶│ ingress │────views───▶│  relay  │───to app──▶│ egress  │──▶ TUN
//!  (apps)     └─────────┘             └─────────┘            └─────────┘
//!   ▲     retrieval + parse      TCP/UDP/DNS machines,    TunWriter lanes
//!   │     app endpoints          sockets, mapper, timers       │
//!   └────────────── DeliverToApp events ◀──────────────────────┘
//!                                     │ samples
//!                                     ▼
//!                                ┌─────────┐
//!                                │  sink   │  measurement fold:
//!                                └─────────┘  sketches + samples
//! ```
//!
//! * [`ingress`] — TUN retrieval and parse: the app endpoints write raw IP
//!   bytes into pooled buffers, the `ReaderSim` models the retrieval cost,
//!   and delivered responses re-enter here.
//! * [`relay`] — the relay decision: per-connection TCP state machines, UDP
//!   associations, external sockets, the packet-to-app mapper, and the
//!   cancellable per-connection timers.
//! * [`egress`] — the TunWriter timing lanes that carry packets back to the
//!   apps.
//! * [`sink`] — the measurement fold: every finished sample lands in the
//!   streaming sketch aggregates (and, optionally, the raw vector), and
//!   per-flow outcomes accumulate here.
//!
//! Stages own their state exclusively; anything genuinely cross-cutting —
//! the clock, the simulated network, the cost model and CPU ledger, the
//! TUN device both ends touch, and the [`flows`] table that holds every
//! flow's record and live state — lives in [`EngineShared`], passed
//! explicitly into every stage call. Cross-stage effects travel either as
//! return values routed by the engine or as events scheduled on the timing
//! wheel; no stage reaches into another's fields.

pub mod egress;
pub mod flows;
pub mod ingress;
pub mod relay;
pub mod sink;

use mop_packet::Packet;
use mop_simnet::{
    CostModel, CpuLedger, SimClock, SimDuration, SimNetwork, SimRng, SimTime, SlabBatch,
    TimerScheduler,
};
use mop_tun::TunDevice;

use crate::config::{ClockGranularity, EngineDiscipline, MopEyeConfig, WorkerModel};
use crate::engine::Event;
use crate::stats::RttSample;

pub use egress::EgressStage;
pub use flows::{FlowId, FlowTable};
pub use ingress::IngressStage;
pub use relay::RelayStage;
pub use sink::SinkStage;

/// Salt mixed into per-flow RNG seeds so the engine's flow-keyed streams do
/// not collide with the network's (which key off the same seed and hash).
const ENGINE_KEY_SALT: u64 = 0x656e_675f_6b65_7973; // "eng_keys"

/// A batch of work travelling between pipeline stages — the unit of the
/// vectored datapath. Each variant is one stage boundary: TUN slabs enter at
/// ingress, outbound packets flow relay → egress, and finished samples flow
/// relay → sink.
#[derive(Debug)]
pub enum StageBatch {
    /// App packets sealed into one contiguous slab, headed for ingress
    /// parse + relay.
    Tun(SlabBatch),
    /// Relay-decided packets headed back to the apps through egress.
    Outbound {
        /// The flow every packet of the batch belongs to.
        flow: FlowId,
        /// `(processing start, packet)` pairs in relay-decision order.
        packets: Vec<(SimTime, Packet)>,
        /// Whether temporary socket-connect threads were live when the batch
        /// was emitted (tunnel-write contention, §3.5.1).
        connect_threads_active: bool,
    },
    /// Finished RTT measurements, each with its flow, headed for the
    /// measurement sink.
    Samples(Vec<(FlowId, RttSample)>),
}

/// The connections a stage can reach while processing a batch: the shared
/// substrate, the timer scheduler for follow-up events, and the downstream
/// stages it may hand a derived batch to. The engine (or an upstream stage)
/// lends exactly the links the callee needs; absent stages are `None`.
#[derive(Debug)]
pub struct StageLinks<'a> {
    /// The cross-cutting substrate (clock, network, TUN, costs, RNGs).
    pub shared: &'a mut EngineShared,
    /// The event-loop scheduler, for follow-up events a batch produces
    /// (crate-visible: the event enum is an engine internal).
    pub(crate) sched: &'a mut TimerScheduler<Event>,
    /// The relay stage, when the callee sits upstream of it.
    pub relay: Option<&'a mut RelayStage>,
    /// The egress stage, when the callee sits upstream of it.
    pub egress: Option<&'a mut EgressStage>,
}

/// One stage of the engine datapath. The trait is deliberately small: the
/// engine drives stages through their concrete methods (each stage's inputs
/// and outputs are its own), and uses the trait where it treats the pipeline
/// uniformly — naming stages in diagnostics and feeding them batches of
/// work.
pub trait Stage {
    /// The stage's name in the pipeline diagram.
    fn name(&self) -> &'static str;

    /// Consumes one batch of work, using `links` for the substrate and any
    /// downstream stages. Per-item semantics are identical to the item-wise
    /// methods — batching amortises dispatch, it never reorders — so stages
    /// that take no batches keep the default no-op.
    fn process_batch(&mut self, links: &mut StageLinks<'_>, batch: &mut StageBatch) {
        let _ = (links, batch);
    }
}

/// The cross-cutting substrate every stage draws on: virtual time, the
/// simulated network and TUN device, the calibrated cost model, the CPU
/// ledger, the device-wide RNG stream and the per-flow state.
#[derive(Debug)]
pub struct EngineShared {
    /// The engine configuration.
    pub config: MopEyeConfig,
    /// The shard's virtual clock.
    pub clock: SimClock,
    /// The simulated network (paths, DNS, wire tap).
    pub net: SimNetwork,
    /// The TUN device both pipeline ends touch: ingress retrieves app
    /// writes from it, egress writes relay packets back to it.
    pub tun: TunDevice,
    /// Calibrated system-call and scheduler costs.
    pub cost: CostModel,
    /// CPU / memory / battery accounting.
    pub ledger: CpuLedger,
    /// The device-wide RNG stream ([`EngineDiscipline::SharedDevice`]).
    pub rng: SimRng,
    /// Every flow's record and live state, including its RNG stream under
    /// [`EngineDiscipline::FlowKeyed`] (see [`flows`]).
    pub flows: FlowTable,
    /// When the MainWorker frees up ([`WorkerModel::Saturating`] only).
    pub worker_busy_until: SimTime,
    /// How many consecutive backlogged packets the saturating MainWorker has
    /// amortised in its current burst (see [`EngineShared::worker_step`]).
    pub worker_burst_len: u64,
}

impl EngineShared {
    /// Builds the substrate for `config` over `net`.
    pub fn new(config: MopEyeConfig, net: SimNetwork) -> Self {
        let rng = SimRng::seed_from_u64(config.seed);
        Self {
            config,
            clock: SimClock::new(),
            net,
            tun: TunDevice::new(),
            cost: CostModel::android_phone(),
            ledger: CpuLedger::new(),
            rng,
            flows: FlowTable::default(),
            worker_busy_until: SimTime::ZERO,
            worker_burst_len: 1,
        }
    }

    /// Resets the substrate for a new run over `net`, keeping the config,
    /// the calibrated cost model and every table allocation: the clock
    /// restarts at zero, the device-wide RNG is reseeded from the config
    /// seed, and the tunnel device, ledger and flow table are cleared —
    /// state indistinguishable from [`EngineShared::new`] with the same
    /// config.
    pub fn reset(&mut self, net: SimNetwork) {
        self.clock = SimClock::new();
        self.net = net;
        self.tun.reset();
        self.ledger.reset();
        self.rng = SimRng::seed_from_u64(self.config.seed);
        self.flows.reset();
        self.worker_busy_until = SimTime::ZERO;
        self.worker_burst_len = 1;
    }

    /// Checks out the RNG stream backing `flow`'s noise: the device-wide
    /// stream under [`EngineDiscipline::SharedDevice`], the flow's own
    /// stream (seeded from `config.seed ^ hash(four-tuple)`) under
    /// [`EngineDiscipline::FlowKeyed`]. Pair with [`EngineShared::checkin_rng`].
    pub fn checkout_rng(&mut self, flow: FlowId) -> SimRng {
        match self.config.discipline {
            EngineDiscipline::SharedDevice => {
                std::mem::replace(&mut self.rng, SimRng::seed_from_u64(0))
            }
            EngineDiscipline::FlowKeyed => {
                self.flows.live_mut(flow).and_then(|live| live.rng.take()).unwrap_or_else(|| {
                    let key = self.flows.key(flow).canonical();
                    SimRng::seed_from_u64(self.config.seed ^ key.stable_hash() ^ ENGINE_KEY_SALT)
                })
            }
        }
    }

    /// Returns a stream checked out with [`EngineShared::checkout_rng`].
    pub fn checkin_rng(&mut self, flow: FlowId, rng: SimRng) {
        match self.config.discipline {
            EngineDiscipline::SharedDevice => self.rng = rng,
            EngineDiscipline::FlowKeyed => self.flows.live_or_take(flow).rng = Some(rng),
        }
    }

    /// Charges one MainWorker processing step of nominal `cost` to the CPU
    /// ledger and returns its start time: immediate under
    /// [`WorkerModel::Unbounded`]; queued behind the worker's backlog (and
    /// occupying it) under [`WorkerModel::Saturating`].
    ///
    /// A backlogged saturating worker is draining a burst: packets after the
    /// first in a burst (up to `config.batch_size`) are charged `cost /
    /// cost_model.batch_hot_divisor` (floored at `batch_floor`) instead of
    /// the full amount — the vectored datapath pays wake-up, cache warm-up
    /// and dispatch once per burst, not once per packet. With `batch_size ==
    /// 1` no packet ever qualifies, reproducing the unbatched worker
    /// exactly; under `Unbounded` the charge never affects timing at all.
    pub fn worker_step(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        match self.config.worker {
            WorkerModel::Unbounded => {
                self.ledger.charge("MainWorker", cost);
                now
            }
            WorkerModel::Saturating => {
                let backlogged = now < self.worker_busy_until;
                let hot = backlogged && self.worker_burst_len < self.config.batch_size as u64;
                let charged = if hot {
                    SimDuration::from_nanos(
                        cost.as_nanos() / u64::from(self.cost.batch_hot_divisor.max(1)),
                    )
                    .max(self.cost.batch_floor)
                } else {
                    cost
                };
                self.worker_burst_len = if hot { self.worker_burst_len + 1 } else { 1 };
                self.ledger.charge("MainWorker", charged);
                let start = now.max(self.worker_busy_until);
                self.worker_busy_until = start + charged;
                start
            }
        }
    }

    /// A timestamp at the configured clock granularity.
    pub fn timestamp(&self, t: SimTime) -> SimTime {
        match self.config.clock {
            ClockGranularity::Nanosecond => t,
            ClockGranularity::Millisecond => self.cost.coarse_timestamp(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use mop_packet::Endpoint;
    use mop_simnet::SimNetwork;
    use mop_tun::{FlowKind, FlowSpec};

    use crate::config::MopEyeConfig;
    use crate::engine::MopEyeEngine;

    /// Teardown must release every flow's live state — its TCP client, RNG
    /// stream and writer lane — so shard memory is bounded by *concurrent*
    /// flows, not by every flow a fleet run has ever seen. (This needs
    /// engine internals, hence a unit test rather than an integration test.)
    #[test]
    fn flow_keyed_engine_evicts_finished_flow_state() {
        let flows: Vec<FlowSpec> = (0..30)
            .map(|i| FlowSpec {
                at: mop_simnet::SimTime::from_millis(10 + 40 * i as u64),
                uid: 10_100,
                package: "com.android.chrome".into(),
                src: Some(Endpoint::v4(10, 1, 0, i as u8, 40_000)),
                dst: Endpoint::v4(216, 58, 221, 132, 443),
                domain: Some("www.google.com".into()),
                request_bytes: 300,
                close_after: 2048,
                kind: FlowKind::Tcp,
                network: None,
                isp: None,
            })
            .collect();
        let net = SimNetwork::builder().seed(42).with_table2_destinations().build();
        let mut engine = MopEyeEngine::new(MopEyeConfig::fleet_shard(), net);
        let report = engine.run_flows(flows);
        assert_eq!(report.relay.connects_ok, 30);
        // Teardown released the live state: memory is bounded by concurrent
        // flows, not total flows — state recreated by the app's final ACKs
        // is swept by the zombie-client cleanup.
        let flows = &engine.shared.flows;
        assert_eq!(flows.live_clients(), 0, "zombie clients not removed");
        assert_eq!(flows.live_slots(), 0, "flow RNG streams or writer lanes not evicted");
        assert_eq!(report.flows.len(), 30, "records outlive their live state");
    }
}
