//! Correctness gates. Every check runs outside the timed region; a failed
//! check fails the operation it belongs to.
//!
//! An operation is one batch run or one request. The gates count
//! operations attempted and failed; the run is correct only when none
//! failed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mop_dataset::Scenario;
use mop_server::Reply;
use mop_tun::FlowSpec;
use mopeye_core::{FleetConfig, FleetEngine, FlowOutcome};

/// Digest of `Scenario::rush_hour(300, 20_170_712)` at fleet seed 77, the
/// cross-version anchor the repository's determinism tests pin.
pub const ANCHOR_DIGEST: u64 = 0x9e91_0e37_fc9c_0e02;

/// Operation and failure tally of one benchmark run.
#[derive(Debug, Default)]
pub struct Gates {
    attempted: u64,
    failed: u64,
    op_failed: bool,
    failures: Vec<String>,
}

impl Gates {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed a check, returned an error frame or panicked.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of every failed check, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Starts an operation and runs it, failing it if it panics. Checks
    /// made after this call, up to the next operation, belong to it.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        self.op_failed = false;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(out) => Some(out),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.fail(format!("{what} panicked: {message}"));
                None
            }
        }
    }

    /// Counts an operation that failed before it could run.
    pub fn fail_op(&mut self, message: String) {
        self.op("", || ());
        self.fail(message);
    }

    /// Fails the current operation (once, however many checks fail).
    pub fn fail(&mut self, message: String) {
        if !self.op_failed {
            self.failed += 1;
            self.op_failed = true;
        }
        eprintln!("check failed: {message}");
        self.failures.push(message);
    }

    /// Fails the current operation unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(message());
        }
        ok
    }

    /// Requires `got == expected`.
    pub fn digest(&mut self, what: &str, got: u64, expected: u64) -> bool {
        self.check(got == expected, || {
            format!("{what}: digest {got:016x}, expected {expected:016x}")
        })
    }

    /// Requires a reply that carries a result, not an error frame.
    pub fn reply(&mut self, what: &str, reply: &Reply) -> bool {
        self.check(
            reply.error_code().is_none() && reply.result().is_some(),
            || {
                format!(
                    "{what}: error frame {}",
                    mop_json::to_string(&reply.response)
                )
            },
        )
    }

    /// Requires one flow outcome per generated flow: the source endpoints
    /// of the outcomes are exactly those of the flows, counted with
    /// multiplicity (each flow has its own source).
    pub fn outcomes(&mut self, what: &str, flows: &[FlowSpec], outcomes: &[FlowOutcome]) -> bool {
        let mut want: Vec<_> = flows.iter().map(|f| f.src).collect();
        let mut have: Vec<_> = outcomes.iter().map(|o| Some(o.flow.src)).collect();
        want.sort_unstable();
        have.sort_unstable();
        self.check(want == have, || {
            format!(
                "{what}: {} flows generated but {} outcomes match",
                want.len(),
                have.len()
            )
        })
    }
}

/// Runs the determinism anchor at `shards` shards as one operation and
/// requires its digest to be `expected` (normally [`ANCHOR_DIGEST`]).
pub fn anchor(gates: &mut Gates, shards: usize, expected: u64) {
    let digest = gates.op("anchor run", || {
        let scenario = Scenario::rush_hour(300, 20_170_712);
        FleetEngine::new(FleetConfig::new(shards).with_seed(77), scenario.network())
            .run(scenario.generate())
            .digest()
    });
    if let Some(digest) = digest {
        gates.digest(&format!("anchor at {shards} shard(s)"), digest, expected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_operation_fails_once_however_many_checks_fail() {
        let mut gates = Gates::new();
        gates.op("a", || ());
        gates.check(false, || "first".into());
        gates.check(false, || "second".into());
        gates.op("b", || ());
        gates.check(true, || unreachable!());
        assert_eq!((gates.attempted(), gates.failed()), (2, 1));
        assert_eq!(gates.failures().len(), 2);
    }

    #[test]
    fn a_panicking_operation_counts_as_failed() {
        let mut gates = Gates::new();
        let out: Option<()> = gates.op("boom", || panic!("bang"));
        assert!(out.is_none());
        assert_eq!(gates.failed(), 1);
        assert!(gates.failures()[0].contains("bang"));
    }
}
