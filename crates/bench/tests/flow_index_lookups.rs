//! Lookup guard for the engine's flow table: an event resolves its flow at
//! most once.
//!
//! Every per-flow fact of the engine lives in one flow table whose index is
//! probed once when a flow starts and once per parsed TUN packet; every
//! other event carries the flow's id. The table counts its own index
//! probes, and this test pins them on a warm resident engine (one shard's
//! engine, reset and rerun, as a resident fleet runs it) over rush hour:
//! at most one probe per processed event, and no more per event at 400
//! users than at 100. A handler that goes back to re-hashing a four-tuple
//! per event pushes the figure above one.
//!
//! ```bash
//! cargo test --release -p mop_bench --test flow_index_lookups -- --nocapture
//! ```

use mop_dataset::Scenario;
use mopeye_core::{FleetConfig, MopEyeEngine};

/// Index probes per processed event of a warm run of rush hour at `users`.
fn lookups_per_event(users: usize) -> (f64, u64) {
    let scenario = Scenario::rush_hour(users, 20_170_712);
    let flows = scenario.generate();
    let network = scenario.network().flow_keyed();
    let config = FleetConfig::new(1).with_seed(77).engine;
    let mut engine = MopEyeEngine::new(config, network.clone().build());
    engine.run_flows(flows.clone());
    engine.reset(network.build());
    let report = engine.run_flows(flows.clone());
    assert_eq!(report.flows.len(), flows.len(), "one outcome per flow");
    let events = report.events_processed;
    assert!(events > 0);
    (engine.flow_index_lookups() as f64 / events as f64, events)
}

#[test]
fn a_warm_run_probes_the_flow_index_at_most_once_per_event() {
    let (small, small_events) = lookups_per_event(100);
    let (large, large_events) = lookups_per_event(400);
    println!(
        "flow index: {small:.3} lookups/event over {small_events} events at 100 users, \
         {large:.3} over {large_events} at 400 users"
    );
    assert!(large_events >= 3 * small_events, "the larger run should be about four times larger");
    for (users, per_event) in [(100, small), (400, large)] {
        assert!(
            per_event <= 1.0,
            "{per_event:.3} index lookups/event at {users} users (bound 1.0)"
        );
    }
    // Allow the different traffic draw a little noise, not growth.
    assert!(large <= small * 1.05, "{large:.3} lookups/event at 400 users vs {small:.3} at 100");
}
