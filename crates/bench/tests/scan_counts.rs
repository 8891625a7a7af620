//! Complexity guard for the per-flow relay handlers: the elements a lookup
//! scans must not grow with the size of the run.
//!
//! The relay asks the wire tap for tcpdump ground truth on every connect and
//! every DNS answer, and updates the connection table on every connect and
//! every close. Both structures are indexed per four-tuple, so a lookup
//! visits only the matching flow's records or slots. A regression to a
//! run-wide or live-set scan makes the per-lookup figure grow roughly with
//! the user count; this test runs rush hour at 100 and at 400 users on one
//! shard and compares the two.
//!
//! The counters exist only with the `profiling` feature:
//!
//! ```bash
//! cargo test --release -p mop_bench --features profiling --test scan_counts
//! ```
#![cfg(feature = "profiling")]

use mop_dataset::Scenario;
use mopeye_core::{FleetConfig, FleetEngine};

/// Scanned elements per lookup, for the tap and for the connection table.
fn per_lookup(users: usize) -> [(&'static str, f64, u64); 2] {
    let scenario = Scenario::rush_hour(users, 20_170_712);
    let report = FleetEngine::new(FleetConfig::new(1).with_seed(77), scenario.network())
        .run(scenario.generate());
    let counters = &report.merged.profile.counters;
    let ratio = |prefix: &'static str| {
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        let lookups = get(&format!("{prefix}.lookups"));
        let scanned = get(&format!("{prefix}.scan_elems"));
        assert!(lookups > 0, "{prefix}: no lookups counted at {users} users");
        (prefix, scanned as f64 / lookups as f64, lookups)
    };
    [ratio("tap"), ratio("conn_table")]
}

#[test]
fn scanned_elements_per_lookup_do_not_grow_with_run_size() {
    let small = per_lookup(100);
    let large = per_lookup(400);
    for ((name, small_ratio, small_lookups), (_, large_ratio, large_lookups)) in
        small.into_iter().zip(large)
    {
        println!(
            "{name}: {small_ratio:.2} elements/lookup over {small_lookups} lookups at 100 users, \
             {large_ratio:.2} over {large_lookups} at 400 users"
        );
        assert!(
            large_lookups >= 3 * small_lookups,
            "{name}: the larger run should make about four times the lookups"
        );
        // A run-wide scan would grow about fourfold here; allow noise from
        // the different traffic draw, not growth.
        assert!(
            large_ratio <= small_ratio * 1.25 + 0.5,
            "{name}: {large_ratio:.2} elements/lookup at 400 users vs {small_ratio:.2} at 100"
        );
    }
}
