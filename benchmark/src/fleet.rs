//! `fleet-scrape`: an in-process fleetd under a closed loop of collection
//! rounds and an open loop of `/metrics` scrapes.
//!
//! Each repetition launches a fresh fleet of 128 hosts on 2 shard threads,
//! runs warm-up rounds, then times rounds back to back while one scraper
//! thread GETs `/metrics` over TCP every 100 ms, one connection at a time,
//! timing each scrape from when it was due. Every repetition runs the same
//! rounds, so every one must publish identical snapshots.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;

use fleetd::server::render_metrics;
use fleetd::shard::{spawn_server, stop_server, Fleet, FleetSnapshot, SharedState};
use fleetd::FleetConfig;

use crate::result::{peak_rss_mb, Checks, Metric, Outcome};
use crate::span::{self, Layer, Trace};
use crate::stats::{derive_seed, quantile, sorted, summarize, Digest, Hist};

const HOSTS: u32 = 128;
const SHARDS: u32 = 2;
const RETENTION_ROUNDS: u64 = 16;
const SCRAPE_EVERY_NS: u64 = 100_000_000;
/// Families every scrape must carry: the set `scripts/tier1.sh` requires.
const REQUIRED: [&str; 9] = [
    "pathfinder_fleetd_rounds",
    "pathfinder_fleetd_points",
    "pathfinder_fleetd_round_ns",
    "pathfinder_fleetd_scrape_ns",
    "pathfinder_fleetd_shard_lag_ns",
    "pathfinder_tsdb_resident_bytes",
    "pathfinder_obs_dropped_events",
    "pathfinder_fleet_inst_retired_any",
    "pathfinder_host_inst_retired_any",
];

fn now() -> u64 {
    obs::clock::now_ns()
}

/// A launched fleet with its scrape endpoint.
struct Served {
    fleet: Fleet,
    addr: String,
    server: JoinHandle<()>,
}

impl Served {
    fn launch(seed: u64) -> Result<Served, String> {
        let fleet = Fleet::launch(FleetConfig {
            hosts: HOSTS,
            shards: SHARDS,
            seed: derive_seed(seed, 0),
            epochs_per_round: 1,
            retention_rounds: RETENTION_ROUNDS,
            ..FleetConfig::default()
        })?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let server =
            spawn_server(fleet.state(), listener).map_err(|e| format!("spawn server: {e}"))?;
        Ok(Served {
            fleet,
            addr,
            server,
        })
    }

    fn close(self) {
        stop_server(&self.fleet.state(), &self.addr, self.server);
        self.fleet.shutdown();
    }
}

fn fold_snapshot(d: &mut Digest, s: &FleetSnapshot) {
    for w in [s.round, s.hosts, s.epochs, s.points] {
        d.word(w);
    }
    for c in &s.counters {
        for w in [c.sum, c.p50, c.p95, c.p99] {
            d.word(w);
        }
    }
    for (id, [inst, cycles]) in &s.headline {
        for w in [u64::from(*id), *inst, *cycles] {
            d.word(w);
        }
    }
}

/// Fleet-wide (instructions retired, unhalted cycles).
fn headline_sums(s: &FleetSnapshot) -> (u64, u64) {
    s.headline
        .iter()
        .fold((0, 0), |(i, c), (_, [inst, cy])| (i + inst, c + cy))
}

/// One scrape over TCP: connect, GET /metrics, return the body.
fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        _ => Err(format!("bad response: {:.80}", response)),
    }
}

struct ScrapeSample {
    /// From due time to the last byte read.
    latency_ns: u64,
    /// From due time to the connect.
    late_ns: u64,
    /// `render_metrics` on a fresh snapshot, timed right after the scrape
    /// in a traced repetition: (ns, body bytes).
    render: Option<(u64, usize)>,
    result: Result<(), String>,
}

/// The open-loop scraper: one GET per 100 ms slot until `stop`.
fn scraper(
    addr: &str,
    state: &SharedState,
    stop: &AtomicBool,
    traced: bool,
) -> (Vec<ScrapeSample>, Trace) {
    if traced {
        span::start();
    }
    let start = now();
    let mut samples = Vec::new();
    for k in 0.. {
        let due = start + k * SCRAPE_EVERY_NS;
        while !stop.load(Ordering::Acquire) && now() < due {
            let wait = due.saturating_sub(now()).min(10_000_000);
            std::thread::sleep(std::time::Duration::from_nanos(wait));
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let begin = now();
        let result = span::time(Layer::Scrape, || scrape(addr))
            .and_then(|body| obs::prom::validate(&body, &REQUIRED).map(|_| ()));
        let done = now();
        let render = traced.then(|| {
            let t0 = now();
            let body = span::time(Layer::Render, || render_metrics(&state.read()));
            (now() - t0, body.len())
        });
        samples.push(ScrapeSample {
            latency_ns: done - due,
            late_ns: begin - due,
            render,
            result,
        });
    }
    (
        samples,
        if traced {
            span::stop()
        } else {
            Trace::default()
        },
    )
}

/// Warm-up and timed rounds of one repetition.
#[derive(Clone, Copy)]
struct Plan {
    warmup: usize,
    rounds: usize,
}

/// Latencies (ns) of rounds and scrapes, pooled over a run's repetitions.
#[derive(Default)]
struct Latencies {
    round: Hist,
    scrape: Hist,
}

/// One repetition on a freshly launched fleet.
#[derive(Default)]
struct Rep {
    setup_ns: u64,
    busy_ns: u64,
    host_epochs: u64,
    insts: u64,
    digest: Digest,
    traced: Option<TracedRep>,
}

/// What a traced repetition adds.
struct TracedRep {
    /// Coordinator-side round time and shard spread, medians.
    coordinator_round_ns: f64,
    shard_lag_ns: f64,
    rows: u64,
    columns: u64,
    resident_bytes: u64,
    render_ns: f64,
    render_bytes: f64,
    /// Scrape time from connect to last byte, median.
    scrape_ns: f64,
    late_p95_ns: f64,
    ipc: f64,
    rounds: Trace,
    scrapes: Trace,
}

impl Rep {
    fn speed(&self) -> f64 {
        self.host_epochs as f64 * 1e9 / self.busy_ns.max(1) as f64
    }
}

fn median(v: impl Iterator<Item = u64>) -> f64 {
    summarize(&v.map(|x| x as f64).collect::<Vec<_>>()).median
}

fn rep(
    seed: u64,
    plan: Plan,
    traced: bool,
    checks: &mut Checks,
    lat: &mut Latencies,
) -> Result<Rep, String> {
    let t0 = now();
    let mut served = Served::launch(seed)?;
    let setup_ns = now() - t0;
    let state = served.fleet.state();
    let mut digest = Digest::default();
    for _ in 0..plan.warmup {
        served.fleet.run_round()?;
        fold_snapshot(&mut digest, &state.read());
    }
    // The first scrape creates the scrape-path self-metrics that every
    // later scrape must carry.
    scrape(&served.addr)?;
    let (inst0, cycles0) = headline_sums(&state.read());
    let stop = AtomicBool::new(false);
    let mut round_ns = Vec::with_capacity(plan.rounds);
    let mut coordinator = Vec::with_capacity(plan.rounds);
    let mut last = None;
    let fleet = &mut served.fleet;
    let (samples, scrapes, rounds) = std::thread::scope(|sc| -> Result<_, String> {
        let scraper = sc.spawn(|| scraper(&served.addr, &state, &stop, traced));
        if traced {
            span::start();
        }
        let result = (0..plan.rounds).try_for_each(|r| {
            span::set_epoch(r as u64);
            let t0 = now();
            let s = span::time(Layer::Round, || fleet.run_round())?;
            round_ns.push(now() - t0);
            coordinator.push((s.round_ns, s.shard_lag_ns));
            fold_snapshot(&mut digest, &state.read());
            last = Some(s);
            Ok::<(), String>(())
        });
        let rounds = if traced {
            span::stop()
        } else {
            Trace::default()
        };
        stop.store(true, Ordering::Release);
        let (samples, scrapes) = scraper
            .join()
            .map_err(|_| "scraper thread panicked".to_string())?;
        result.map(|()| (samples, scrapes, rounds))
    })?;
    let (inst1, cycles1) = headline_sums(&state.read());
    let columns = served.fleet.columns() as u64;
    served.close();
    // Drop the daemon's span buffer, so peak RSS does not grow with the
    // number of repetitions a run happens to fit.
    obs::span::reset();

    for s in &samples {
        checks.check(
            "every scrape body passes obs::prom::validate",
            s.result.clone(),
        );
    }
    let last = last.ok_or("no timed round")?;
    for &ns in &round_ns {
        lat.round.record(ns);
    }
    for s in &samples {
        lat.scrape.record(s.latency_ns);
    }
    let busy_ns = round_ns.iter().sum();
    let traced = traced.then(|| {
        let renders: Vec<(u64, usize)> = samples.iter().filter_map(|s| s.render).collect();
        let late: Vec<f64> = samples.iter().map(|s| s.late_ns as f64).collect();
        TracedRep {
            coordinator_round_ns: median(coordinator.iter().map(|c| c.0)),
            shard_lag_ns: median(coordinator.iter().map(|c| c.1)),
            rows: last.points,
            columns,
            resident_bytes: last.resident_bytes,
            render_ns: median(renders.iter().map(|r| r.0)),
            render_bytes: median(renders.iter().map(|r| r.1 as u64)),
            scrape_ns: median(samples.iter().map(|s| s.latency_ns - s.late_ns)),
            late_p95_ns: quantile(&sorted(&late), 0.95),
            ipc: (inst1 - inst0) as f64 / (cycles1 - cycles0).max(1) as f64,
            rounds,
            scrapes,
        }
    });
    Ok(Rep {
        setup_ns,
        busy_ns,
        host_epochs: plan.rounds as u64 * u64::from(HOSTS),
        insts: inst1 - inst0,
        digest,
        traced,
    })
}

pub fn run(seed: u64, seconds: u64, trace: bool, smoke: bool) -> Outcome {
    let mut checks = Checks::default();
    match measure(seed, seconds, trace, smoke, &mut checks) {
        Ok(mut o) => {
            o.checks = checks;
            o
        }
        Err(why) => {
            checks.check("the fleet launches and completes its rounds", Err(why));
            Outcome {
                checks,
                ..Outcome::default()
            }
        }
    }
}

fn measure(
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    // The daemon records its self-metrics and serves them on /metrics, so
    // the benchmark turns the obs layer on as `pathfinder-fleetd` does.
    obs::enable();
    // Two warm-up rounds plus sixteen timed ones: the retention window
    // (16 rounds) first deletes in the last two, the same in every
    // repetition.
    let plan = if smoke {
        Plan {
            warmup: 1,
            rounds: 3,
        }
    } else {
        Plan {
            warmup: 2,
            rounds: 16,
        }
    };
    let deadline = now() + seconds * 1_000_000_000;
    let mut lat = Latencies::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < 2 || now() < deadline {
        untraced.push(rep(seed, plan, false, checks, &mut lat)?);
        if trace {
            traced.push(rep(seed, plan, true, checks, &mut Latencies::default())?);
        }
    }
    let first = untraced[0].digest;
    for r in untraced.iter().chain(&traced).skip(1) {
        checks.same_digest(first, r.digest);
    }

    let work = |f: fn(&Rep) -> u64| {
        untraced
            .iter()
            .map(|r| (f(r), r.busy_ns))
            .collect::<Vec<_>>()
    };
    let setups: Vec<f64> = untraced.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    // A round advances every host by one epoch; the scraper is the user.
    let mut metrics = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::rate("epochs_per_s", "epochs/s", &work(|r| r.host_epochs)),
        Metric::rate("sim_insts_per_s", "insts/s", &work(|r| r.insts)),
        Metric::pooled("epoch_p50_us", "us", &lat.round, 0.50, 1e3),
        Metric::pooled("epoch_p99_us", "us", &lat.round, 0.99, 1e3),
        Metric::pooled_mean("response_mean_ms", "ms", &lat.scrape, 1e6),
        Metric::pooled("response_p50_ms", "ms", &lat.scrape, 0.50, 1e6),
        Metric::pooled("response_p95_ms", "ms", &lat.scrape, 0.95, 1e6),
    ];
    let mut artefacts = Vec::new();
    if trace {
        let tall = |f: fn(&TracedRep) -> f64| {
            summarize(
                &traced
                    .iter()
                    .filter_map(|r| r.traced.as_ref().map(f))
                    .collect::<Vec<_>>(),
            )
            .median
        };
        let t0 = traced[0]
            .traced
            .as_ref()
            .ok_or("traced repetition without a trace")?;
        // Repetition i ran untraced, then traced, back to back.
        let overhead: Vec<f64> = untraced
            .iter()
            .zip(&traced)
            .map(|(u, t)| 100.0 * (u.speed() / t.speed() - 1.0))
            .collect();
        metrics.extend([
            Metric::exact("fleetd.round_ns", "ns", tall(|t| t.coordinator_round_ns)),
            Metric::exact("fleetd.shard_lag_ns", "ns", tall(|t| t.shard_lag_ns)),
            Metric::exact("fleetd.round.rows", "count", t0.rows as f64),
            Metric::exact(
                "fleetd.round.samples",
                "count",
                (t0.rows * t0.columns) as f64,
            ),
            Metric::exact("fleetd.render_ns", "ns", tall(|t| t.render_ns)),
            Metric::exact("fleetd.render_bytes", "bytes", t0.render_bytes),
            Metric::exact("fleetd.http_ns", "ns", tall(|t| t.scrape_ns - t.render_ns)),
            Metric::exact("loadgen.late_ns_p95", "ns", tall(|t| t.late_p95_ns)),
            Metric::exact("tsdb.resident_bytes", "bytes", t0.resident_bytes as f64),
            Metric::exact("model.ipc", "ratio", t0.ipc),
            Metric::exact("sim_digest", "hash", first.as_metric()),
            Metric::median("obs.trace_overhead_pct", "%", &overhead),
        ]);
        let mut both = t0.rounds.clone();
        both.absorb(&t0.scrapes);
        artefacts = vec![
            (
                "trace.json".to_string(),
                span::chrome_trace(&[&t0.rounds, &t0.scrapes]),
            ),
            (
                "selftime.txt".to_string(),
                span::self_time_table(&both, "round", plan.rounds as u64),
            ),
        ];
    }
    metrics.push(Metric::exact("peak_rss_mb", "MB", peak_rss_mb()?));
    Ok(Outcome {
        reps: untraced.len(),
        metrics,
        checks: Checks::default(),
        digest: first,
        artefacts,
    })
}
