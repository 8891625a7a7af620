//! The batch workloads, `crowd_batch` and `lossy_commute`: a closed loop of
//! `ResidentFleet::run_next` plus `render_crowd_report` on one resident
//! fleet, cycling through a few flow sets generated from the seed.
//!
//! Cycling averages each run over several scenario draws, so one seed's
//! traffic mix does not set the whole run's figures. Every repeat of a
//! flow set must reproduce that set's first fleet digest and crowd report.

use std::time::{Duration, Instant};

use mop_bench::{render_crowd_report, ExperimentOutput};
use mop_dataset::Scenario;
use mop_simnet::SimNetworkBuilder;
use mop_tun::FlowSpec;
use mopeye_core::{CongestionAlgo, FleetConfig, FleetReport, ResidentFleet};

use crate::gates::{self, Gates};
use crate::metrics::{median, ratio, tail, LayerTally, Metric};
use crate::{
    absent, overhead_share, trace, Options, RunResult, Size, Workload, SETUP_REPEATS, SHARDS,
};

/// What a batch workload runs.
#[derive(Debug, Clone, Copy)]
struct BatchParams {
    users: usize,
    /// Flow sets the run cycles through.
    variants: usize,
    congestion: CongestionAlgo,
    /// The workload must exercise loss recovery.
    expect_recovery: bool,
    scenario: fn(usize, u64) -> Scenario,
}

impl BatchParams {
    /// The parameters of a batch workload at a size.
    fn of(workload: Workload, size: Size) -> Self {
        match workload {
            Workload::CrowdBatch => Self {
                users: if size == Size::Full { 1_000 } else { 40 },
                variants: if size == Size::Full { 5 } else { 2 },
                congestion: CongestionAlgo::Reno,
                expect_recovery: false,
                scenario: Scenario::rush_hour,
            },
            Workload::LossyCommute => Self {
                users: if size == Size::Full { 300 } else { 40 },
                variants: if size == Size::Full { 8 } else { 2 },
                congestion: CongestionAlgo::Cubic,
                expect_recovery: true,
                scenario: Scenario::degraded_commute,
            },
            Workload::ServerStream => panic!("server_stream is not a batch workload"),
        }
    }
}

/// One generated flow set and the network it runs on.
struct Variant {
    flows: Vec<FlowSpec>,
    network: SimNetworkBuilder,
}

/// A set-up batch workload: inputs generated, fleet spawned.
struct Setup {
    variants: Vec<Variant>,
    fleet: ResidentFleet,
}

fn setup(params: &BatchParams, seed: u64) -> Setup {
    trace::span("batch.setup", || {
        let variants = (0..params.variants)
            .map(|k| {
                let scenario = (params.scenario)(params.users, crate::variant_seed(seed, k));
                Variant {
                    flows: trace::span("dataset.generate", || scenario.generate()),
                    network: trace::span("dataset.network", || scenario.network()),
                }
            })
            .collect();
        let mut config = FleetConfig::new(SHARDS)
            .with_seed(seed)
            .with_congestion(params.congestion);
        // Lean mode, as the crowd-report binary runs: samples live only in
        // the streaming aggregates.
        config.engine = config.engine.with_retain_samples(false);
        let fleet = trace::span("core.fleet_spawn", || ResidentFleet::new(config));
        Setup { variants, fleet }
    })
}

/// Sets up [`SETUP_REPEATS`] times, keeping the last; returns it with the
/// set-up times in seconds.
fn setup_repeatedly(params: &BatchParams, seed: u64) -> (Setup, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup(params, seed));
        times.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// The first repeat's outputs, which every later repeat must reproduce.
struct Reference {
    digest: u64,
    report_text: String,
}

/// One timed measurement: a closed loop of batch operations.
#[derive(Default)]
struct Measured {
    latencies_ms: Vec<f64>,
    /// Flows per second of each operation.
    rates: Vec<f64>,
    flows: u64,
    timed_secs: f64,
    tally: LayerTally,
    cells: usize,
}

impl Measured {
    /// Flows per second of the median operation: a mean over a dozen
    /// operations would carry the one a scheduling hiccup slowed.
    fn flows_per_s(&self) -> f64 {
        median(&self.rates)
    }
}

fn measure(
    params: &BatchParams,
    setup: &mut Setup,
    seconds: f64,
    gates: &mut Gates,
    references: &mut [Option<Reference>],
) -> Measured {
    let mut measured = Measured::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for op in 0.. {
        let k = op % setup.variants.len();
        let variant = &setup.variants[k];
        let flows = variant.flows.clone();
        let count = flows.len();
        let started = Instant::now();
        let ran = gates.op("batch run", || {
            trace::span("batch.op", || {
                let run_started = Instant::now();
                let report = trace::span("core.run_next", || {
                    setup.fleet.run_next(&variant.network, flows)
                });
                let run_secs = run_started.elapsed().as_secs_f64();
                let output = trace::span("analytics.render_crowd_report", || {
                    render_crowd_report(&report.merged.aggregates)
                });
                (report, output, run_secs)
            })
        });
        let elapsed = started.elapsed().as_secs_f64();
        let Some((report, output, run_secs)) = ran else {
            break;
        };
        measured.latencies_ms.push(elapsed * 1e3);
        measured.rates.push(ratio(count as f64, elapsed));
        measured.timed_secs += elapsed;
        measured.flows += count as u64;
        measured.tally.add(&report, count, run_secs);
        measured.cells = report.merged.aggregates.cell_count();
        check_run(
            params,
            &variant.flows,
            &report,
            &output,
            gates,
            &mut references[k],
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    measured
}

/// The per-repeat gates: same digest and crowd report as the first repeat,
/// one outcome per flow, a report covering every sample, and (on the
/// lossy workload) live recovery counters.
fn check_run(
    params: &BatchParams,
    flows: &[FlowSpec],
    report: &FleetReport,
    output: &ExperimentOutput,
    gates: &mut Gates,
    reference: &mut Option<Reference>,
) {
    let reference = reference.get_or_insert_with(|| Reference {
        digest: report.digest(),
        report_text: output.text.clone(),
    });
    gates.digest("repeat", report.digest(), reference.digest);
    gates.outcomes("batch run", flows, &report.merged.flows);
    let samples = report.merged.aggregates.sample_count();
    gates.check(
        samples > 0 && output.json["samples"].as_u64() == Some(samples),
        || {
            format!(
                "crowd report covers {:?} of {samples} samples",
                output.json["samples"].as_u64()
            )
        },
    );
    gates.check(output.text == reference.report_text, || {
        "crowd report differs from the first repeat".into()
    });
    if params.expect_recovery {
        let relay = &report.merged.relay;
        gates.check(
            relay.retransmits > 0
                && relay.fast_retransmits > 0
                && relay.rto_fires > 0
                && relay.sacked_segments > 0,
            || format!("loss recovery idle: {relay:?}"),
        );
    }
}

/// Runs a batch workload.
pub fn run(options: &Options) -> RunResult {
    let params = BatchParams::of(options.workload, options.size);
    let mut gates = Gates::new();
    let mut references: Vec<Option<Reference>> = (0..params.variants).map(|_| None).collect();
    let (mut state, setup_secs) = setup_repeatedly(&params, options.seed);
    let mut result = RunResult::default();

    if options.trace {
        let untraced = measure(
            &params,
            &mut state,
            options.seconds / 2.0,
            &mut gates,
            &mut references,
        );
        drop(state);
        trace::enable();
        let (mut state, _) = setup_repeatedly(&params, options.seed);
        let traced = measure(
            &params,
            &mut state,
            options.seconds / 2.0,
            &mut gates,
            &mut references,
        );
        drop(state);
        result.spans = trace::finish();
        let spans = &result.spans;
        let median_ms = |name: &str| median(&trace::durations_ms(spans, name));
        result.metrics = vec![
            Metric::new("dataset.generate_ms", "ms", median_ms("dataset.generate")),
            Metric::new("core.fleet_spawn_ms", "ms", median_ms("core.fleet_spawn")),
            Metric::new("core.run_ms", "ms", median_ms("core.run_next")),
        ];
        result.metrics.extend(traced.tally.metrics());
        result
            .metrics
            .push(Metric::new("measure.cells", "count", traced.cells as f64));
        result
            .metrics
            .extend(absent(&[("measure.live_epochs", "count")]));
        result.metrics.push(Metric::new(
            "analytics.report_ms",
            "ms",
            median_ms("analytics.render_crowd_report"),
        ));
        result.metrics.extend(absent(&crate::stream::STREAM_ONLY));
        result
            .metrics
            .push(overhead_share(untraced.flows_per_s(), traced.flows_per_s()));
        result.notes.push(format!(
            "traced {} runs, untraced {} runs",
            traced.latencies_ms.len(),
            untraced.latencies_ms.len()
        ));
    } else {
        let peak_before = crate::peak_heap_bytes();
        let measured = measure(
            &params,
            &mut state,
            options.seconds,
            &mut gates,
            &mut references,
        );
        let peak = crate::peak_heap_bytes();
        drop(state);
        let ops = measured.latencies_ms.len();
        let (percentile, tail) = tail(&measured.latencies_ms);
        result.metrics = vec![
            Metric::new("flows_per_s", "1/s", measured.flows_per_s()),
            Metric::new("setup_s", "s", median(&setup_secs)),
            Metric::new("peak_heap_mb", "MB", peak as f64 / 1e6),
            Metric::new("step_p50_ms", "ms", median(&measured.latencies_ms)),
            Metric::new("step_p99_ms", "ms", tail),
            Metric::new(
                "requests_per_s",
                "1/s",
                ratio(1e3, median(&measured.latencies_ms)),
            ),
        ];
        result.notes.push(format!(
            "{ops} batch runs over {} flow sets, {} flows in {:.3} s timed; a step and a request \
             are one run_next plus crowd report, and the rates are those of the median run; \
             step_p99_ms is the p{percentile:.0} of {ops} samples; setup_s is the median of \
             {SETUP_REPEATS} set-ups; the peak heap {} during the timed region",
            params.variants,
            measured.flows,
            measured.timed_secs,
            if peak > peak_before {
                "was reached"
            } else {
                "was not raised"
            },
        ));
    }

    for shards in [1, SHARDS] {
        gates::anchor(&mut gates, shards, gates::ANCHOR_DIGEST);
    }
    result.attempted = gates.attempted();
    result.failed = gates.failed();
    result
}
