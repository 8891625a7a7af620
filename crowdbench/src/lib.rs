//! The crowd-report benchmark: times the repository's real workflows end to
//! end, on host wall time, and checks every output.
//!
//! Three closed-loop workloads drive the public API (see `README.md` for
//! why each was chosen and which layer it loads):
//!
//! * `crowd_batch` — large rush-hour runs on a resident 2-shard fleet, each
//!   followed by the crowd report (`batch.rs`);
//! * `lossy_commute` — repeated modest degraded-commute runs with CUBIC,
//!   the only workload that exercises loss recovery (`batch.rs`);
//! * `server_stream` — one control-plane session after another over a
//!   Unix socket, stepping epoch by epoch under a full-detail subscription
//!   (`stream.rs`).
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around the calls into each layer ([`trace`]) and reports the
//! per-layer metrics. Correctness gates ([`gates`]) run outside the timed
//! region.

use mop_bench::alloc_counter::CountingAllocator;

mod batch;
pub mod gates;
pub mod metrics;
mod stream;
pub mod trace;

pub use metrics::Metric;

/// Counts every allocation so the peak live heap can be read.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The process's peak live heap so far, in bytes.
pub fn peak_heap_bytes() -> u64 {
    ALLOC.peak_bytes()
}

/// Shard count of every fleet the benchmark drives: sized for a 2-core host.
pub const SHARDS: usize = 2;

/// How many times a batch run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large rush-hour runs plus the crowd report.
    CrowdBatch,
    /// Modest degraded-commute runs with CUBIC loss recovery.
    LossyCommute,
    /// Control-plane sessions over a Unix socket.
    ServerStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CrowdBatch,
        Workload::LossyCommute,
        Workload::ServerStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrowdBatch => "crowd_batch",
            Workload::LossyCommute => "lossy_commute",
            Workload::ServerStream => "server_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark; `Tiny` is for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured wall seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted and failed (see [`gates::Gates`]).
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced) or the per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line: sample
    /// counts, `failed_share`, the self-time table.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl RunResult {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
pub fn run(options: &Options) -> RunResult {
    let mut result = match options.workload {
        Workload::CrowdBatch | Workload::LossyCommute => batch::run(options),
        Workload::ServerStream => stream::run(options),
    };
    result.notes.push(format!(
        "failed_share = {} share ({} of {} operations failed)",
        metrics::ratio(result.failed as f64, result.attempted as f64),
        result.failed,
        result.attempted
    ));
    if options.trace {
        for (name, (calls, total, own)) in trace::self_times(&result.spans) {
            result.notes.push(format!(
                "span {name:<32} calls {calls:>6}  total {total:>11.3} ms  self {own:>11.3} ms"
            ));
        }
    }
    result
}

/// `1 − traced / untraced` throughput: the share of throughput tracing
/// costs (noise can make it slightly negative).
pub fn overhead_share(untraced_per_s: f64, traced_per_s: f64) -> Metric {
    Metric::new(
        "trace.overhead_share",
        "share",
        1.0 - metrics::ratio(traced_per_s, untraced_per_s),
    )
}

/// The scenario seed of draw `variant` of a run seeded `seed`. A run
/// cycles through a few draws so that one draw's traffic mix does not set
/// the run's figures.
pub fn variant_seed(seed: u64, variant: usize) -> u64 {
    seed.wrapping_add((variant as u64) << 32)
}

/// The per-layer metrics a workload does not exercise, reported as 0 so
/// every traced run prints the full set.
pub fn absent(names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, 0.0))
        .collect()
}

/// Where a run writes its spans and the server socket: `out/` inside the
/// benchmark's package.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
