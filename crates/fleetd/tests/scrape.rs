//! Live scrape contract: a real TCP GET against the daemon's `/metrics`
//! endpoint returns Prometheus text exposition that passes
//! `obs::prom::validate` with the families FLEET.md promises.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use fleetd::shard::{spawn_server, Fleet};
use fleetd::FleetConfig;

fn get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header split");
    (head.to_string(), body.to_string())
}

#[test]
fn live_metrics_scrape_validates() {
    obs::enable();
    let cfg = FleetConfig {
        hosts: 4,
        shards: 2,
        seed: 11,
        epochs_per_round: 1,
        retention_rounds: 4,
        record_streams: false,
    };
    let mut fleet = Fleet::launch(cfg).expect("launch");
    for _ in 0..2 {
        fleet.run_round().expect("round");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    spawn_server(fleet.state(), listener).expect("server");

    let (head, _) = get(&addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");

    let (head, body) = get(&addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "metrics: {head}");
    let stats = obs::prom::validate(
        &body,
        &[
            "pathfinder_fleetd_rounds",
            "pathfinder_fleetd_points",
            "pathfinder_fleetd_hosts",
            "pathfinder_fleetd_shard_lag_ns",
            "pathfinder_fleetd_round_ns",
            "pathfinder_tsdb_resident_bytes",
            "pathfinder_obs_dropped_events",
            "pathfinder_fleet_inst_retired_any",
            "pathfinder_fleet_cpu_clk_unhalted_thread",
            "pathfinder_host_inst_retired_any",
        ],
    )
    .expect("scrape validates");
    assert!(stats.families > 250, "full counter set exposed");
    // One headline sample per host.
    assert_eq!(body.matches("pathfinder_host_inst_retired_any{").count(), 4);

    // The scrape path reports itself: a second scrape sees the first.
    let (_, body2) = get(&addr, "/metrics");
    assert!(
        body2.contains("pathfinder_fleetd_scrapes"),
        "scrape counter appears after the first scrape"
    );

    let (head, _) = get(&addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "unknown path: {head}");

    fleet.shutdown();
}
