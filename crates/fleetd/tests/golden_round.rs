//! Golden byte-identity for a fixed-seed fleetd round: the recorded
//! per-host counter streams of a small fleet must match the bytes
//! captured before the event-wheel scheduler landed (`tests/golden/`).
//!
//! `tests/determinism.rs` pins *shard-count* invariance; this test pins
//! the *values* across scheduler rewrites — same discipline as the
//! figure CSV goldens in `crates/bench/tests/golden_identity.rs`.
//!
//! Refresh (only when the simulation model itself legitimately changes):
//! `FLEETD_GOLDEN_REFRESH=1 cargo test -p fleetd --test golden_round`.

use std::path::PathBuf;

use fleetd::host::HostSim;
use fleetd::shard::Fleet;
use fleetd::FleetConfig;

const HOSTS: u32 = 5;
const SEED: u64 = 0x0090_1DE4;
const ROUNDS: usize = 3;
const EPOCHS_PER_ROUND: u64 = 2;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_round.csv")
}

/// One fixed-seed fleet round matrix: 5 hosts (covers all four FLEET_APPS
/// and both placement policies), 2 shards, 3 rounds of 2 epochs.
fn run_fixed_fleet() -> String {
    let cfg = FleetConfig {
        hosts: HOSTS,
        shards: 2,
        seed: SEED,
        epochs_per_round: EPOCHS_PER_ROUND,
        retention_rounds: 0,
        record_streams: true,
    };
    let mut fleet = Fleet::launch(cfg).expect("launch fleet");
    for _ in 0..ROUNDS {
        fleet.run_round().expect("round");
    }
    let dump = fleet.dump_streams().expect("dump");
    fleet.shutdown();
    dump
}

#[test]
fn fixed_seed_round_streams_match_golden_bytes() {
    let dump = run_fixed_fleet();
    assert!(!dump.is_empty(), "streams were recorded");
    if std::env::var_os("FLEETD_GOLDEN_REFRESH").is_some() {
        std::fs::create_dir_all(golden_path().parent().expect("golden parent"))
            .expect("create golden dir");
        std::fs::write(golden_path(), &dump).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("read golden fleet_round.csv (run once with FLEETD_GOLDEN_REFRESH=1)");
    assert!(
        dump == want,
        "fleetd fixed-seed round diverged from its pre-wheel golden\n\
         --- golden ---\n{want}\n--- fresh ---\n{dump}",
    );
}

/// The per-op walk was once the reference datapath beside a batched one;
/// it is now the only datapath, and the test above pins it through the
/// whole fleet. This one drives the same five hosts directly on the
/// calling thread, with no shard workers, channels or tsdb ingest, and
/// requires the golden bytes again: the streams are a function of each
/// host's datapath alone, never of the fleet plumbing around it.
#[test]
fn fixed_seed_round_streams_are_datapath_invariant() {
    let mut direct = String::new();
    for id in 0..HOSTS {
        let mut host = HostSim::new(id, SEED).expect("build host");
        for _ in 0..ROUNDS {
            host.advance(EPOCHS_PER_ROUND, true);
        }
        direct.push_str(&host.stream);
    }
    assert!(!direct.is_empty(), "streams were recorded");
    let want = std::fs::read_to_string(golden_path())
        .expect("read golden fleet_round.csv (run once with FLEETD_GOLDEN_REFRESH=1)");
    assert!(
        direct == want,
        "directly driven hosts diverged from the fleetd round golden\n\
         --- golden ---\n{want}\n--- direct ---\n{direct}",
    );
}
