//! `pathfinder-fleetd` — the fleet-mode collector daemon.
//!
//! ```text
//! pathfinder-fleetd [--hosts N] [--shards K] [--rounds R]
//!                   [--epochs-per-round E] [--seed S] [--retention N]
//!                   [--listen ADDR|none] [--scrape-out FILE]
//!                   [--timings] [--timings-json FILE] [--trace FILE]
//! ```
//!
//! Launches a sharded fleet of simulated hosts, serves `/metrics` on
//! `--listen` (port 0 picks an ephemeral port; the bound address is
//! printed as `listening on ADDR`), and drives `--rounds` collection
//! rounds (`0` = run until stopped). `SIGTERM`/Ctrl-C request a
//! graceful stop: the in-flight round drains completely (counters are
//! never torn mid-round), the scrape listener is woken and closed, and
//! the shard workers are joined — the normal exit path, just earlier.
//! `--scrape-out` performs a real TCP
//! self-scrape after the last round and writes the exposition body to a
//! file — `scripts/tier1.sh` validates it with `obs_validate --prom`.
//!
//! The whole binary is on the daemon surface: panic-free (the clippy
//! panic, indexing, slicing, division and assert lints denied below) and
//! obs-clocked.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::integer_division_remainder_used,
        clippy::disallowed_macros
    )
)]

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;

use fleetd::shard::{self, spawn_server, Fleet};
use fleetd::FleetConfig;

struct Opts {
    cfg: FleetConfig,
    rounds: u64,
    listen: Option<String>,
    scrape_out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        cfg: FleetConfig::default(),
        rounds: 4,
        listen: Some("127.0.0.1:9177".to_string()),
        scrape_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--hosts" => {
                opts.cfg.hosts = parse_num(&value("--hosts")?, "--hosts")?;
            }
            "--shards" => {
                opts.cfg.shards = parse_num(&value("--shards")?, "--shards")?;
            }
            "--rounds" => {
                opts.rounds = parse_num(&value("--rounds")?, "--rounds")?;
            }
            "--epochs-per-round" => {
                opts.cfg.epochs_per_round =
                    parse_num(&value("--epochs-per-round")?, "--epochs-per-round")?;
            }
            "--seed" => {
                opts.cfg.seed = parse_num(&value("--seed")?, "--seed")?;
            }
            "--retention" => {
                opts.cfg.retention_rounds = parse_num(&value("--retention")?, "--retention")?;
            }
            "--listen" => {
                let addr = value("--listen")?;
                opts.listen = if addr == "none" { None } else { Some(addr) };
            }
            "--scrape-out" => opts.scrape_out = Some(PathBuf::from(value("--scrape-out")?)),
            other => return Err(format!("unknown flag `{other}` (see --help in FLEET.md)")),
        }
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

/// One real scrape over TCP: connect, GET /metrics, return the body.
fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("send scrape: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read scrape: {e}"))?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err("scrape response has no header/body split".to_string()),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (obs_args, rest) = obs::cli::ObsArgs::strip(&args)?;
    let session = obs::cli::Session::new(obs_args);
    // The daemon's self-metrics are its product, not an opt-in debug
    // artefact: record regardless of which obs flags were passed.
    obs::enable();
    let opts = parse_opts(&rest)?;

    // Route SIGINT/SIGTERM to the stop flag before any round runs, so a
    // kill during launch already drains instead of aborting.
    shard::install_stop_handlers();

    let mut fleet = Fleet::launch(opts.cfg.clone())?;
    println!(
        "fleetd: {} hosts x {} counters over {} shards, {} epochs/round",
        opts.cfg.hosts,
        fleet.columns(),
        fleet.workers(),
        opts.cfg.epochs_per_round
    );

    let mut server_handle = None;
    let addr = match &opts.listen {
        Some(requested) => {
            let listener =
                TcpListener::bind(requested).map_err(|e| format!("bind {requested}: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?;
            server_handle = Some(
                spawn_server(fleet.state(), listener)
                    .map_err(|e| format!("spawn scrape server: {e}"))?,
            );
            println!("listening on {local}");
            Some(local.to_string())
        }
        None => None,
    };

    let t0 = obs::clock::now_ns();
    let mut epochs_total = 0u64;
    let mut points_total = 0u64;
    let mut round = 0u64;
    let stopped = fleet.drive(opts.rounds, shard::stop_requested, |summary| {
        epochs_total += summary.epochs;
        points_total += summary.points;
        round += 1;
        println!(
            "round {round}: {} epochs, {} points, {:.1} ms (shard lag {:.1} ms), {} resident bytes",
            summary.epochs,
            summary.points,
            summary.round_ns as f64 / 1e6,
            summary.shard_lag_ns as f64 / 1e6,
            summary.resident_bytes
        );
        Ok(())
    })?;
    if stopped {
        println!("fleetd: stop requested — round {round} drained, shutting down");
    }
    let wall_s = obs::clock::now_ns().saturating_sub(t0) as f64 / 1e9;

    if let Some(path) = &opts.scrape_out {
        let a = addr
            .as_deref()
            .ok_or_else(|| "--scrape-out needs --listen".to_string())?;
        // Warm-up scrape so the written body includes the scrape-path
        // self-metrics (fleetd.scrape_ns / fleetd.scrapes) themselves.
        let _ = scrape(a)?;
        let body = scrape(a)?;
        std::fs::write(path, &body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("[scrape] {} ({} bytes)", path.display(), body.len());
    }

    println!("done: {round} rounds, {epochs_total} epochs, {points_total} points in {wall_s:.2}s");
    if let (Some(handle), Some(a)) = (server_handle, &addr) {
        // Close the listener before joining the workers: once this
        // returns, the port no longer accepts scrapes.
        shard::stop_server(&fleet.state(), a, handle);
    }
    fleet.shutdown();
    session.finish().map_err(|e| format!("obs export: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pathfinder-fleetd: {e}");
            ExitCode::FAILURE
        }
    }
}
