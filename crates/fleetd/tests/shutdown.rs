//! Graceful-shutdown anchors: a stop request drains the in-flight
//! round — no counter round is ever torn — and the scrape listener
//! unblocks and closes instead of leaking a detached accept loop, even
//! with a slow client in flight and a scrape queued behind it.
//!
//! Torn-round check: a fleet asked for many rounds but stopped after
//! the first must be byte-identical (streams, snapshot, roll-ups) to a
//! fresh fleet asked for exactly one round. `Fleet::drive` only
//! consults the stop predicate at round boundaries, so the two runs
//! see the same sequence of whole rounds.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use fleetd::shard::{self, spawn_server, Fleet};
use fleetd::FleetConfig;

fn cfg(hosts: u32, shards: u32) -> FleetConfig {
    FleetConfig {
        hosts,
        shards,
        epochs_per_round: 2,
        record_streams: true,
        ..FleetConfig::default()
    }
}

#[test]
fn stop_between_rounds_never_tears_a_round() {
    // Asked for 8 rounds, stopped as soon as one has completed.
    let mut stopped = Fleet::launch(cfg(6, 2)).expect("launch stopped fleet");
    let done = std::cell::Cell::new(0u64);
    let stopped_early = stopped
        .drive(
            8,
            || done.get() >= 1,
            |s| {
                done.set(s.round);
                Ok(())
            },
        )
        .expect("drive stopped fleet");
    assert!(stopped_early, "the stop predicate must end the loop");
    assert_eq!(
        done.get(),
        1,
        "exactly one round drains before the stop lands"
    );

    // A fresh fleet asked for exactly one round, no stop involved.
    let mut fresh = Fleet::launch(cfg(6, 2)).expect("launch fresh fleet");
    let budget_done = fresh
        .drive(1, || false, |_| Ok(()))
        .expect("drive fresh fleet");
    assert!(!budget_done, "the budget, not a stop, must end this loop");

    let (a, b) = (stopped.state().read(), fresh.state().read());
    assert_eq!(a.round, 1);
    assert_eq!(a.round, b.round);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.points, b.points);
    assert_eq!(a.counters, b.counters, "fleet roll-ups must not tear");
    assert_eq!(a.headline, b.headline, "per-host headlines must not tear");
    assert_eq!(
        stopped.dump_streams().expect("dump stopped"),
        fresh.dump_streams().expect("dump fresh"),
        "per-host counter streams must be byte-identical"
    );
    stopped.shutdown();
    fresh.shutdown();
}

#[test]
fn sigterm_lands_in_the_stop_flag() {
    shard::install_stop_handlers();
    shard::clear_stop();
    assert!(!shard::stop_requested());
    // raise(3) runs the handler synchronously on this thread.
    shard::raise_sigterm();
    assert!(
        shard::stop_requested(),
        "the SIGTERM handler must set the stop flag"
    );
    shard::clear_stop();
}

#[test]
fn stop_server_unblocks_and_closes_the_listener() {
    let fleet = Fleet::launch(cfg(2, 1)).expect("launch fleet");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let state = fleet.state();
    let handle = spawn_server(fleet.state(), listener).expect("spawn server");

    // If the accept loop failed to observe the flag this join would
    // hang and the harness would time the test out — returning is the
    // assertion.
    shard::stop_server(&state, &addr, handle);
    assert!(
        std::net::TcpStream::connect(&addr).is_err(),
        "the listener must be closed once stop_server returns"
    );
    fleet.shutdown();
}

/// A client drips its request line into the single accept loop and a
/// full `GET /metrics` queues behind it. `stop_server` must return within
/// the 2 s request deadline plus a margin, and the queued client must get
/// a complete response or EOF/reset — never a hang.
#[test]
fn stop_server_during_a_scrape_never_hangs() {
    let mut fleet = Fleet::launch(cfg(2, 1)).expect("launch fleet");
    fleet.run_round().expect("round");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let state = fleet.state();
    let handle = spawn_server(fleet.state(), listener).expect("spawn server");

    let mut slow = TcpStream::connect(&addr).expect("connect slow client");
    for byte in b"GET /met" {
        slow.write_all(&[*byte]).expect("drip");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut queued = TcpStream::connect(&addr).expect("connect queued scraper");
    queued
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send scrape");

    let t0 = obs::clock::now_ns();
    shard::stop_server(&state, &addr, handle);
    let took_ms = obs::clock::now_ns().saturating_sub(t0) / 1_000_000;
    assert!(
        took_ms < 4_000,
        "stop_server took {took_ms} ms behind a slow client"
    );

    // A read timeout here means the queued client was left hanging.
    queued
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = Vec::new();
    if let Err(e) = queued.read_to_end(&mut response) {
        assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "queued scrape neither answered nor closed: {e}"
        );
    }
    if !response.is_empty() {
        let text = String::from_utf8_lossy(&response);
        let (head, body) = text.split_once("\r\n\r\n").expect("a whole head");
        assert!(head.starts_with("HTTP/1.1 200"), "queued scrape: {head}");
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse::<usize>().ok())
            .expect("Content-Length");
        assert_eq!(body.len(), length, "the queued scrape got a torn body");
    }
    drop(slow);
    fleet.shutdown();
}
