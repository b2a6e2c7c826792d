//! Live scrape contract: a real TCP GET against the daemon's `/metrics`
//! endpoint returns Prometheus text exposition that passes
//! `obs::prom::validate` with the families FLEET.md promises, and a slow
//! client cannot hold the endpoint away from other scrapers.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use fleetd::shard::{spawn_server, stop_server, Fleet};
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

/// The server handles one connection at a time. A client that drips its
/// request one byte every 100 ms for 15 s must hold it only until the
/// request deadline: a scrape sent after the drip starts still completes
/// within a few seconds.
#[test]
fn slowloris_client_does_not_hold_the_endpoint() {
    let cfg = FleetConfig {
        hosts: 2,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::launch(cfg).expect("launch");
    fleet.run_round().expect("round");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = spawn_server(fleet.state(), listener).expect("server");

    let mut slow = TcpStream::connect(&addr).expect("connect slow client");
    slow.write_all(b"G").expect("first byte");
    std::thread::sleep(Duration::from_millis(100));

    let t0 = obs::clock::now_ns();
    let mut scraper = TcpStream::connect(&addr).expect("connect scraper");
    scraper
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    scraper.set_nonblocking(true).expect("nonblocking");
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    let mut done_ns = None;
    for _ in 0..150 {
        // Fails once the server has given up on the slow client.
        let _ = slow.write_all(b"E");
        std::thread::sleep(Duration::from_millis(100));
        loop {
            match scraper.read(&mut buf) {
                Ok(0) => {
                    done_ns = Some(obs::clock::now_ns().saturating_sub(t0));
                    break;
                }
                Ok(n) => response.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("scrape read: {e}"),
            }
        }
        if done_ns.is_some() {
            break;
        }
    }

    let elapsed_ns = done_ns.expect("scrape still waiting after 15 s of dripping");
    assert!(
        elapsed_ns < 6_000_000_000,
        "scrape took {} ms behind a slow client",
        elapsed_ns / 1_000_000
    );
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200"), "scrape: {text}");
    assert!(text.contains("pathfinder_fleet_inst_retired_any"));

    drop(slow);
    stop_server(&fleet.state(), &addr, server);
    fleet.shutdown();
}
