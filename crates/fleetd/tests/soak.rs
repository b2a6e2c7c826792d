//! Soak under retention: each shard DB drops rows older than
//! `retention_rounds` with `tsdb::Db::delete_range`, so resident bytes
//! plateau once the window is full instead of growing with the round
//! count (FLEET.md). Shard lag is wall-clock time, so it stays out of the
//! assertion.

use fleetd::shard::Fleet;
use fleetd::FleetConfig;

#[test]
fn resident_bytes_plateau_under_retention() {
    let cfg = FleetConfig {
        hosts: 8,
        shards: 2,
        retention_rounds: 4,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::launch(cfg).expect("launch fleet");
    let resident: Vec<u64> = (0..80)
        .map(|_| fleet.run_round().expect("round").resident_bytes)
        .collect();
    fleet.shutdown();
    // Round 8 is well past the 4-round window, so its footprint is the
    // plateau every later round must stay under.
    let plateau = resident[7];
    for (r, &bytes) in resident.iter().enumerate() {
        assert!(
            bytes <= plateau,
            "round {}: {bytes} resident bytes exceed the round-8 plateau of {plateau}",
            r + 1
        );
    }
}
