//! The scrape endpoint: a std-only HTTP/1.1 responder serving Prometheus
//! text exposition.
//!
//! Routes:
//!
//! * `GET /metrics` — the fleet in Prometheus text format: the daemon's
//!   own obs self-metrics (`pathfinder_fleetd_*`, `pathfinder_tsdb_*`,
//!   `pathfinder_obs_dropped_events`), fleet-aggregated counter summaries
//!   (`pathfinder_fleet_<counter>`: per-host p50/p95/p99 quantiles plus
//!   `_sum` = fleet total and `_count` = host count), and per-host
//!   headline counters (`pathfinder_host_*{host="N"}`).
//! * `GET /healthz` — liveness.
//!
//! This module deliberately contains no concurrency primitives: it reads
//! the latest [`FleetSnapshot`] through [`SharedState::read`] and is
//! driven from the thread spawned by `shard::spawn_server`. Wall-clock
//! reads go through `obs::clock`; scrape latency is observed into the
//! `fleetd.scrape_ns` histogram and scrapes are counted in
//! `fleetd.scrapes` — so the daemon's own exposition describes its
//! scrape path too.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use obs::metrics::HistSnapshot;
use obs::prom::PromText;

use crate::shard::{FleetSnapshot, SharedState};

/// The Prometheus family of each counter column's fleet summary
/// (`pathfinder_fleet_<counter>`). A fleet computes these once at launch,
/// so a scrape never formats or mangles a family name.
pub fn fleet_families(names: &[String]) -> Vec<String> {
    names
        .iter()
        .map(|name| obs::prom::mangle(&format!("fleet.{name}")))
        .collect()
}

/// Render the full exposition for one scrape.
pub fn render_metrics(snap: &FleetSnapshot) -> String {
    let mut w = PromText::new();
    w.render_registry();
    let hosts = snap.hosts;
    for (family, stat) in snap.families.iter().zip(snap.counters.iter()) {
        let mean = if hosts == 0 {
            0.0
        } else {
            stat.sum as f64 / hosts as f64
        };
        let h = HistSnapshot {
            count: hosts,
            min: 0,
            max: stat.p99,
            mean,
            p50: stat.p50,
            p95: stat.p95,
            p99: stat.p99,
        };
        w.summary_family(family, &[], &h);
    }
    let mut id = String::new();
    for (host, vals) in &snap.headline {
        id.clear();
        let _ = write!(id, "{host}");
        let mut v = vals.iter();
        if let Some(inst) = v.next() {
            w.counter("host.inst_retired.any", &[("host", id.as_str())], *inst);
        }
        if let Some(cycles) = v.next() {
            w.counter(
                "host.cpu_clk_unhalted.thread",
                &[("host", id.as_str())],
                *cycles,
            );
        }
    }
    w.into_string()
}

fn respond(stream: &TcpStream, status: &str, content_type: &str, body: &str) {
    let mut out = String::with_capacity(body.len() + 128);
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.push_str(body);
    let mut s = stream;
    let _ = s.write_all(out.as_bytes());
    let _ = s.flush();
}

fn handle(stream: &TcpStream, state: &SharedState) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(2000)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2000)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim_end().is_empty() => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(
            stream,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
        return;
    }
    match path {
        "/metrics" => {
            let t0 = obs::clock::now_ns();
            let body = render_metrics(&state.read());
            respond(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
            obs::metrics::observe("fleetd.scrape_ns", obs::clock::now_ns().saturating_sub(t0));
            obs::metrics::counter_add("fleetd.scrapes", 1);
        }
        "/healthz" => respond(stream, "200 OK", "text/plain", "ok\n"),
        _ => respond(stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Accept loop: one request per connection, close after responding.
/// Runs until [`SharedState::stopping`] is raised — `shard::stop_server`
/// sets the flag and then pokes the listener with a throwaway connection
/// so the blocking accept returns; the flag is checked *before* the
/// woken connection is handled, the loop breaks, and returning drops the
/// listener (closing the socket).
pub fn serve(listener: &TcpListener, state: &SharedState) {
    for stream in listener.incoming() {
        if state.stopping() {
            break;
        }
        match stream {
            Ok(s) => handle(&s, state),
            Err(_) => continue,
        }
    }
}
