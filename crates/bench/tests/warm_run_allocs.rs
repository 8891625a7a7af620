//! Allocation guard for the per-flow event path.
//!
//! Two pins, both with the counting allocator:
//!
//! * the CPU ledger, charged on nearly every simulated event, allocates
//!   nothing once a component has been charged for the first time (its keys
//!   are `&'static str` names, never owned strings);
//! * a warm resident rush-hour run allocates a bounded, size-independent
//!   number of times per flow: 110 at most, and no more at 400 users than at
//!   100. A per-event allocation regression (an owned string per charge, a
//!   formatted id per connect) shows up here as a jump of tens per flow.
//!
//! ```bash
//! cargo test --release -p mop_bench --test warm_run_allocs -- --nocapture
//! ```
//!
//! This file intentionally contains a single test: the counting allocator is
//! process-global, so a concurrently running test would pollute the window.

use mop_bench::alloc_counter::CountingAllocator;
use mop_dataset::Scenario;
use mop_simnet::{CpuLedger, SimDuration};
use mopeye_core::{FleetConfig, ResidentFleet};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations per flow of one warm `run_next` of rush hour at `users`
/// users: a first run of the same flows warms the engine, then the second
/// run is counted (report assembly included, the input clone excluded).
fn warm_allocs_per_flow(fleet: &mut ResidentFleet, users: usize) -> f64 {
    let scenario = Scenario::rush_hour(users, 20_170_712);
    let flows = scenario.generate();
    let network = scenario.network();
    fleet.run_next(&network, flows.clone());
    let input = flows.clone();
    let before = ALLOC.allocations();
    let report = fleet.run_next(&network, input);
    let allocations = ALLOC.allocations() - before;
    assert_eq!(report.merged.flows.len(), flows.len(), "one outcome per flow");
    allocations as f64 / flows.len() as f64
}

#[test]
fn ledger_and_warm_runs_stay_allocation_bounded() {
    // (a) The ledger: after each component's first charge, charging and
    // memory accounting allocate nothing.
    let components = ["MainWorker", "TunReader", "TunWriter", "ConnectThreads", "DnsThreads"];
    let mut ledger = CpuLedger::new();
    for name in components {
        ledger.charge(name, SimDuration::from_micros(1));
        ledger.set_memory(name, 1);
    }
    let before = ALLOC.allocations();
    for i in 0..10_000u64 {
        let name = components[(i % components.len() as u64) as usize];
        ledger.charge(name, SimDuration::from_micros(i));
        ledger.set_memory(name, i as usize);
    }
    let ledger_allocations = ALLOC.allocations() - before;
    assert_eq!(ledger_allocations, 0, "a warm ledger charge must not allocate");
    assert!(ledger.total_busy() > SimDuration::ZERO);

    // (b) Warm resident runs on one shard.
    let mut fleet = ResidentFleet::new(FleetConfig::new(1).with_seed(77));
    let small = warm_allocs_per_flow(&mut fleet, 100);
    let large = warm_allocs_per_flow(&mut fleet, 400);
    println!("warm run: {small:.1} allocations/flow at 100 users, {large:.1} at 400 users");
    for (users, per_flow) in [(100, small), (400, large)] {
        assert!(per_flow <= 110.0, "{per_flow:.1} allocations/flow at {users} users (bound 110)");
    }
    // The per-flow figure must not grow with the run: allow the different
    // traffic draw a little noise, not growth.
    assert!(large <= small * 1.05, "{large:.1} allocations/flow at 400 users vs {small:.1} at 100");
}
