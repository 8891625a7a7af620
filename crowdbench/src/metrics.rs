//! Metric values, order statistics and the per-layer counter tally.

use mopeye_core::FleetReport;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) reads as 0.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (nearest rank) of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail latency: the nearest-rank p99 when at least ten samples lie
/// beyond it; otherwise the highest nearest-rank percentile that has ten
/// beyond it, but never below the median. Returns `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = if n - p99_rank >= 10 {
        p99_rank
    } else {
        n.saturating_sub(10).max(n.div_ceil(2))
    };
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (100.0 * rank as f64 / n as f64, sorted[rank - 1])
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counters summed over every fleet run of a measurement, for the
/// `core.*`, `simnet.*`, `tcpstack.*`, `procnet.*` and `measure.*`
/// per-layer metrics.
#[derive(Debug, Default, Clone)]
pub struct LayerTally {
    /// Fleet runs (`run_next` calls) tallied.
    runs: u64,
    /// Flows handed to those runs.
    flows: u64,
    /// Host seconds inside `run_next`.
    run_secs: f64,
    /// Simulated events processed and scheduled.
    events_processed: u64,
    events_scheduled: u64,
    /// Events processed per shard, summed over runs.
    shard_events: Vec<u64>,
    sink_stalls: u64,
    dispatch_stalls: u64,
    pool_allocations: u64,
    pool_reuses: u64,
    /// Sum over runs of both pools' resident bytes at run end.
    pool_resident_bytes: u64,
    retransmits: u64,
    data_segments_out: u64,
    rto_fires: u64,
    mapping_parses: u64,
    mapping_requests: u64,
    /// Crowd samples folded into the runs' aggregates.
    samples: u64,
}

impl LayerTally {
    /// Adds one `run_next` result that ran `flows` flows in `run_secs`.
    pub fn add(&mut self, report: &FleetReport, flows: usize, run_secs: f64) {
        let merged = &report.merged;
        self.runs += 1;
        self.flows += flows as u64;
        self.run_secs += run_secs;
        self.events_processed += merged.events_processed;
        self.events_scheduled += merged.events_scheduled;
        if self.shard_events.len() < report.per_shard.len() {
            self.shard_events.resize(report.per_shard.len(), 0);
        }
        for outcome in &report.per_shard {
            self.shard_events[outcome.shard] += outcome.events_processed;
        }
        self.sink_stalls += merged.relay.sink_stalls;
        self.dispatch_stalls += merged.tun.dispatch_stalls;
        for pool in [&merged.buffer_pool, &merged.socket_read_pool] {
            self.pool_allocations += pool.allocations;
            self.pool_reuses += pool.reuses;
            self.pool_resident_bytes += pool.resident_bytes;
        }
        self.retransmits += merged.relay.retransmits;
        self.data_segments_out += merged.relay.data_segments_out;
        self.rto_fires += merged.relay.rto_fires;
        self.mapping_parses += merged.mapping.parses;
        self.mapping_requests += merged.mapping.requests;
        self.samples += merged.aggregates.sample_count();
    }

    /// The counter-derived per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let runs = self.runs as f64;
        let flows = self.flows as f64;
        let shard_mean = mean(
            &self
                .shard_events
                .iter()
                .map(|&e| e as f64)
                .collect::<Vec<_>>(),
        );
        let shard_max = self.shard_events.iter().copied().max().unwrap_or(0) as f64;
        vec![
            Metric::new("core.us_per_flow", "us", ratio(self.run_secs * 1e6, flows)),
            Metric::new(
                "core.ns_per_event",
                "ns",
                ratio(self.run_secs * 1e9, self.events_processed as f64),
            ),
            Metric::new(
                "core.events_per_flow",
                "count",
                ratio(self.events_processed as f64, flows),
            ),
            Metric::new("core.shard_skew", "ratio", ratio(shard_max, shard_mean)),
            Metric::new(
                "core.sink_stalls",
                "count",
                ratio(self.sink_stalls as f64, runs),
            ),
            Metric::new(
                "simnet.dispatch_stalls",
                "count",
                ratio(self.dispatch_stalls as f64, runs),
            ),
            Metric::new(
                "simnet.timer_cancel_share",
                "share",
                1.0 - ratio(self.events_processed as f64, self.events_scheduled as f64),
            ),
            Metric::new(
                "simnet.pool_reuse_share",
                "share",
                ratio(
                    self.pool_reuses as f64,
                    (self.pool_allocations + self.pool_reuses) as f64,
                ),
            ),
            Metric::new(
                "simnet.pool_resident_mb",
                "MB",
                ratio(self.pool_resident_bytes as f64 / 1e6, runs),
            ),
            Metric::new(
                "tcpstack.retransmit_share",
                "share",
                ratio(self.retransmits as f64, self.data_segments_out as f64),
            ),
            Metric::new(
                "tcpstack.rto_fires",
                "count",
                ratio(self.rto_fires as f64, runs),
            ),
            Metric::new(
                "procnet.parse_share",
                "share",
                ratio(self.mapping_parses as f64, self.mapping_requests as f64),
            ),
            Metric::new(
                "measure.samples_per_flow",
                "count",
                ratio(self.samples as f64, flows),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 1980.0));
        assert_eq!(tail(&values), (90.0, 90.0), "ten samples beyond p90 of 100");
        assert_eq!(tail(&values[..12]), (50.0, 6.0), "never below the median");
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(Metric::new("x", "s", f64::NAN).value, 0.0);
    }
}
