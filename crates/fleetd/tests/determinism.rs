//! The fleet-mode correctness anchor: with a fixed seed, every host's
//! counter stream is byte-identical regardless of how many shards the
//! fleet is split across. Sharding is a throughput knob, never a
//! semantic one.

use fleetd::shard::Fleet;
use fleetd::FleetConfig;

fn dump_with_shards(shards: u32) -> String {
    let cfg = FleetConfig {
        hosts: 6,
        shards,
        seed: 0xDECAF,
        epochs_per_round: 2,
        retention_rounds: 2,
        record_streams: true,
    };
    let mut fleet = Fleet::launch(cfg).expect("launch fleet");
    for _ in 0..3 {
        fleet.run_round().expect("round");
    }
    let dump = fleet.dump_streams().expect("dump");
    fleet.shutdown();
    dump
}

#[test]
fn fixed_seed_streams_are_identical_across_shard_counts() {
    let one = dump_with_shards(1);
    assert!(!one.is_empty(), "streams were recorded");
    // 6 hosts x 3 rounds = 18 CSV lines.
    assert_eq!(one.lines().count(), 18);
    // Each line is id,ts followed by the full counter set.
    let columns = fleetd::host::counter_names().len();
    for line in one.lines() {
        assert_eq!(line.split(',').count(), columns + 2, "bad line: {line}");
    }
    let two = dump_with_shards(2);
    let three = dump_with_shards(3);
    // More shards than hosts: one worker per host, each building its own.
    let eight = dump_with_shards(8);
    assert_eq!(one, two, "1-shard and 2-shard streams diverge");
    assert_eq!(one, three, "1-shard and 3-shard streams diverge");
    assert_eq!(one, eight, "1-shard and 8-shard streams diverge");
}

#[test]
fn streams_are_nonconstant_and_per_host_distinct() {
    let dump = dump_with_shards(2);
    let mut first_round: Vec<&str> = dump
        .lines()
        .filter(|l| l.split(',').nth(1) == Some("2"))
        .collect();
    assert_eq!(first_round.len(), 6, "one first-round line per host");
    first_round.sort_unstable();
    first_round.dedup();
    assert!(
        first_round.len() > 1,
        "hosts with different workloads/policies must produce different streams"
    );
}

#[test]
fn zero_host_fleet_is_rejected() {
    let cfg = FleetConfig {
        hosts: 0,
        ..FleetConfig::default()
    };
    assert!(Fleet::launch(cfg).is_err());
}
