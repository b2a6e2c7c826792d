//! Resident memory per simulated host. A fleet's memory grows with its
//! host count, so a bound on the growth per host is what makes a host
//! count a tested property rather than an estimate (README.md, FLEET.md).
//! A test binary of its own: no other test shares the process whose
//! resident set it reads.

use fleetd::shard::Fleet;
use fleetd::FleetConfig;

/// Resident set of this process in KiB (`VmRSS`, /proc/self/status).
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn resident_growth_stays_under_256_kib_per_host() {
    const HOSTS: u32 = 256;
    let before = rss_kib();
    let mut fleet = Fleet::launch(FleetConfig {
        hosts: HOSTS,
        shards: 2,
        ..FleetConfig::default()
    })
    .expect("launch fleet");
    for _ in 0..2 {
        fleet.run_round().expect("round");
    }
    let per_host = rss_kib().saturating_sub(before) / u64::from(HOSTS);
    fleet.shutdown();
    assert!(
        per_host <= 256,
        "{HOSTS} hosts grew the resident set by {per_host} KiB per host"
    );
}
