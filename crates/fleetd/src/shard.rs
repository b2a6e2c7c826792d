//! Shard workers and the fleet coordinator — all of fleetd's concurrency
//! lives in this one file. The root `clippy.toml` disallows threads,
//! locks, atomics and channels everywhere else; each item here that uses
//! one carries its own `#[expect]` (see STATIC_ANALYSIS.md).
//!
//! Topology: hosts are split into contiguous id ranges, one range per
//! shard. Each shard is a long-lived worker thread that builds its
//! [`HostSim`]s and a private columnar [`tsdb::Db`] on its own thread and
//! owns them outright — no shared mutable simulation state, so a round is
//! pure message passing: the coordinator broadcasts `Cmd::Round`, every
//! worker advances its hosts by the epoch budget, ingests one row per
//! host through the allocation-free `series_handle`/`ingest` path, and
//! sends back a `ShardReport` with its partial aggregates. The
//! coordinator merges reports, publishes a [`FleetSnapshot`] for the
//! scrape endpoint behind [`SharedState`], and emits the daemon's `obs`
//! self-metrics.
//!
//! Graceful shutdown lives here too: `SIGINT`/`SIGTERM` handlers set a
//! process-wide stop flag ([`install_stop_handlers`]), [`Fleet::drive`]
//! polls it only at round boundaries so an in-flight round always
//! drains (no torn counters), and [`stop_server`] wakes the accept loop
//! so the listener closes before the workers are joined.
//!
//! Because a host's behaviour depends only on (fleet seed, host id) and
//! workers never interact mid-round, the per-host counter streams are
//! byte-identical for any shard count — the determinism anchor tested in
//! `tests/determinism.rs`.

use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::Arc;
#[expect(clippy::disallowed_types, reason = "the shard runtime's sync types")]
use std::sync::{
    atomic::AtomicBool,
    mpsc::{Receiver, Sender},
    Mutex,
};
use std::thread::JoinHandle;

use tsdb::{Db, SeriesId};

use obs::metrics::Histogram;

use crate::aggregate::CounterStat;
use crate::host::{self, HostSim};
use crate::server::FleetText;
use crate::FleetConfig;

/// Commands the coordinator sends to a shard worker.
#[expect(
    clippy::disallowed_types,
    reason = "a dump replies over its own channel"
)]
enum Cmd {
    /// Advance every host by the round's epoch budget and report.
    Round,
    /// Reply with the concatenation of this shard's recorded host streams.
    Dump(Sender<String>),
    /// Exit the worker loop.
    Stop,
}

/// One shard's per-round report back to the coordinator.
struct ShardReport {
    /// Wall time this shard spent on the round (via `obs::clock`).
    round_ns: u64,
    /// Simulated epochs advanced this round, summed over hosts.
    epochs: u64,
    /// Rows ingested this round.
    points: u64,
    /// Real heap bytes held by this shard's columnar store.
    resident_bytes: u64,
    /// Per-counter partial sums of cumulative host totals.
    sums: Vec<u64>,
    /// Per-counter distributions of cumulative host totals.
    hists: Vec<Histogram>,
    /// `(host id, [inst_retired, cycles])` for per-host exposition.
    headline: Vec<(u32, [u64; 2])>,
}

/// What a scrape sees: the coordinator publishes one of these per round.
#[derive(Clone, Default)]
pub struct FleetSnapshot {
    /// Rounds completed.
    pub round: u64,
    pub hosts: u64,
    /// Total simulated epochs across the fleet.
    pub epochs: u64,
    /// Total rows ingested across all shard DBs.
    pub points: u64,
    /// Real columnar heap, summed over shards.
    pub resident_bytes: u64,
    /// The fleet's fixed `/metrics` text, one column per counter in
    /// registry order.
    pub text: Arc<FleetText>,
    /// Fleet roll-up per counter (sum + per-host percentiles).
    pub counters: Vec<CounterStat>,
    /// Headline counters per host, sorted by host id.
    pub headline: Vec<(u32, [u64; 2])>,
}

/// The coordinator/scrape handshake: the one piece of shared mutable
/// state, a mutex around the latest [`FleetSnapshot`]. The server module
/// only sees [`SharedState::read`], keeping lock handling (and the
/// concurrency) confined to this file.
#[expect(
    clippy::disallowed_types,
    reason = "the coordinator/scrape handshake: a snapshot lock and a stop flag"
)]
pub struct SharedState {
    inner: Mutex<FleetSnapshot>,
    /// Raised once by [`stop_server`]; `server::serve` polls it at the
    /// top of every accept iteration and exits (closing the listener)
    /// when it is set.
    stopping: AtomicBool,
}

impl SharedState {
    #[expect(clippy::disallowed_types, reason = "builds the handshake")]
    fn new() -> SharedState {
        SharedState {
            inner: Mutex::new(FleetSnapshot::default()),
            stopping: AtomicBool::new(false),
        }
    }

    /// Clone out the latest published snapshot.
    pub fn read(&self) -> FleetSnapshot {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// True once [`stop_server`] has asked the scrape loop to exit.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    fn set_stopping(&self) {
        self.stopping.store(true, Ordering::Release);
    }

    fn publish(&self, snap: FleetSnapshot) {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner()) = snap;
    }
}

/// Coordinator-side summary of one completed round.
#[derive(Clone, Copy, Debug)]
pub struct RoundSummary {
    pub round: u64,
    /// Epochs advanced this round across the fleet.
    pub epochs: u64,
    /// Rows ingested this round.
    pub points: u64,
    /// Coordinator wall time for the round.
    pub round_ns: u64,
    /// Fastest-to-slowest shard spread this round.
    pub shard_lag_ns: u64,
    pub resident_bytes: u64,
}

/// A running fleet: shard worker threads plus the coordinator state.
#[expect(clippy::disallowed_types, reason = "the coordinator's shard channels")]
pub struct Fleet {
    cfg: FleetConfig,
    names: Arc<Vec<String>>,
    text: Arc<FleetText>,
    txs: Vec<Sender<Cmd>>,
    rx: Receiver<ShardReport>,
    handles: Vec<JoinHandle<()>>,
    state: Arc<SharedState>,
    round: u64,
    epochs_total: u64,
    points_total: u64,
}

impl Fleet {
    /// Partition the hosts into contiguous, even shards (one per host at
    /// most) and spawn one worker thread per shard, which builds its own
    /// hosts. Returns once every worker has reported its hosts built; if
    /// one reports an error, every worker is stopped and joined and the
    /// error returned.
    pub fn launch(cfg: FleetConfig) -> Result<Fleet, String> {
        Fleet::launch_with(cfg, HostSim::new)
    }

    /// [`Fleet::launch`] with the host constructor as a parameter, so a
    /// test can make a build fail.
    #[expect(
        clippy::disallowed_methods,
        reason = "spawns the shard workers and their channels"
    )]
    fn launch_with<B>(cfg: FleetConfig, build: B) -> Result<Fleet, String>
    where
        B: Fn(u32, u64) -> Result<HostSim, String> + Clone + Send + 'static,
    {
        let _s = obs::span!("fleet.launch");
        cfg.validate()?;
        let names = Arc::new(host::counter_names());
        let (report_tx, rx) = channel();
        let (built_tx, built_rx) = channel();
        let mut fleet = Fleet {
            cfg,
            text: Arc::new(FleetText::new(&names)),
            names,
            txs: Vec::new(),
            rx,
            handles: Vec::new(),
            state: Arc::new(SharedState::new()),
            round: 0,
            epochs_total: 0,
            points_total: 0,
        };
        for ids in shard_ranges(fleet.cfg.hosts, fleet.cfg.shards) {
            let shard_no = fleet.handles.len();
            let (tx, cmd_rx) = channel();
            let worker_cfg = fleet.cfg.clone();
            let worker_names = Arc::clone(&fleet.names);
            let worker_build = build.clone();
            let report = report_tx.clone();
            let built = built_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("fleetd-shard-{shard_no}"))
                .spawn(move || {
                    worker_main(
                        worker_cfg,
                        worker_names,
                        ids,
                        worker_build,
                        built,
                        cmd_rx,
                        report,
                    );
                });
            match spawned {
                Ok(handle) => {
                    fleet.txs.push(tx);
                    fleet.handles.push(handle);
                }
                Err(e) => {
                    fleet.shutdown();
                    return Err(format!("cannot spawn shard {shard_no}: {e}"));
                }
            }
        }
        // Only the workers hold `built` senders now, each until it has
        // reported, so one that dies before it reports ends the wait
        // instead of hanging it.
        drop(built_tx);
        for _ in 0..fleet.handles.len() {
            let failure = match built_rx.recv() {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => e,
                Err(_) => "shard worker died while building its hosts".to_string(),
            };
            fleet.shutdown();
            return Err(failure);
        }
        Ok(fleet)
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Shard workers running: `min(shards, hosts)` of the configuration.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Number of counter columns per host (the full registry).
    pub fn columns(&self) -> usize {
        self.names.len()
    }

    /// Shared handle for the scrape server.
    pub fn state(&self) -> Arc<SharedState> {
        Arc::clone(&self.state)
    }

    /// Drive one round: broadcast, collect every shard's report, merge,
    /// publish the scrape snapshot, and emit obs self-metrics.
    pub fn run_round(&mut self) -> Result<RoundSummary, String> {
        let _s = obs::span!("fleet.round");
        let t0 = obs::clock::now_ns();
        for tx in &self.txs {
            tx.send(Cmd::Round)
                .map_err(|_| "shard worker exited before the round".to_string())?;
        }
        let columns = self.names.len();
        let mut sums = vec![0u64; columns];
        let mut hists = vec![Histogram::default(); columns];
        let mut headline = Vec::with_capacity(self.cfg.hosts as usize);
        let mut epochs = 0u64;
        let mut points = 0u64;
        let mut resident = 0u64;
        let mut fastest = u64::MAX;
        let mut slowest = 0u64;
        for _ in 0..self.txs.len() {
            let r = self
                .rx
                .recv()
                .map_err(|_| "shard worker died mid-round".to_string())?;
            for (acc, v) in sums.iter_mut().zip(r.sums.iter()) {
                *acc += *v;
            }
            for (acc, h) in hists.iter_mut().zip(r.hists.iter()) {
                acc.merge(h);
            }
            headline.extend(r.headline);
            epochs += r.epochs;
            points += r.points;
            resident += r.resident_bytes;
            fastest = fastest.min(r.round_ns);
            slowest = slowest.max(r.round_ns);
        }
        headline.sort_unstable_by_key(|(id, _)| *id);
        self.round += 1;
        self.epochs_total += epochs;
        self.points_total += points;
        let round_ns = obs::clock::now_ns().saturating_sub(t0);
        let shard_lag_ns = slowest.saturating_sub(fastest.min(slowest));
        let counters = sums
            .iter()
            .zip(hists.iter())
            .map(|(s, h)| CounterStat {
                sum: *s,
                p50: h.percentile(0.50).unwrap_or(0),
                p95: h.percentile(0.95).unwrap_or(0),
                p99: h.percentile(0.99).unwrap_or(0),
            })
            .collect();
        self.state.publish(FleetSnapshot {
            round: self.round,
            hosts: u64::from(self.cfg.hosts),
            epochs: self.epochs_total,
            points: self.points_total,
            resident_bytes: resident,
            text: Arc::clone(&self.text),
            counters,
            headline,
        });
        obs::metrics::counter_add("fleetd.rounds", 1);
        obs::metrics::counter_add("fleetd.points", points);
        obs::metrics::gauge_set("fleetd.hosts", f64::from(self.cfg.hosts));
        obs::metrics::gauge_set("fleetd.shard_lag_ns", shard_lag_ns as f64);
        obs::metrics::gauge_set("tsdb.resident_bytes", resident as f64);
        obs::metrics::observe("fleetd.round_ns", round_ns);
        Ok(RoundSummary {
            round: self.round,
            epochs,
            points,
            round_ns,
            shard_lag_ns,
            resident_bytes: resident,
        })
    }

    /// Drive collection rounds until the budget is exhausted or `stop`
    /// reports a pending shutdown. `rounds == 0` means unbounded. The
    /// stop predicate is consulted only *between* rounds, so an
    /// in-flight round always drains completely — a stop can never tear
    /// a round's counters (the shutdown anchor in `tests/shutdown.rs`).
    /// `on_round` observes each completed round; an error from it stops
    /// the loop. Returns `true` when the loop ended on a stop request
    /// rather than the round budget.
    pub fn drive(
        &mut self,
        rounds: u64,
        mut stop: impl FnMut() -> bool,
        mut on_round: impl FnMut(&RoundSummary) -> Result<(), String>,
    ) -> Result<bool, String> {
        let mut done = 0u64;
        while rounds == 0 || done < rounds {
            if stop() {
                return Ok(true);
            }
            let summary = self.run_round()?;
            done += 1;
            on_round(&summary)?;
        }
        Ok(false)
    }

    /// Concatenate every host's recorded counter stream, in host-id order
    /// (shards hold contiguous ascending ranges, so shard order is id
    /// order). Requires `FleetConfig::record_streams`.
    #[expect(clippy::disallowed_methods, reason = "one reply channel per shard")]
    pub fn dump_streams(&self) -> Result<String, String> {
        let mut out = String::new();
        for tx in &self.txs {
            let (reply_tx, reply_rx) = channel();
            tx.send(Cmd::Dump(reply_tx))
                .map_err(|_| "shard worker exited before dump".to_string())?;
            out.push_str(
                &reply_rx
                    .recv()
                    .map_err(|_| "shard worker died during dump".to_string())?,
            );
        }
        Ok(out)
    }

    /// Stop the workers and join them.
    pub fn shutdown(self) {
        for tx in &self.txs {
            let _ = tx.send(Cmd::Stop);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Split hosts `0..hosts` into `min(shards, hosts)` contiguous ranges in
/// ascending order whose sizes differ by at most one, the longer first.
fn shard_ranges(hosts: u32, shards: u32) -> Vec<Range<u32>> {
    let workers = shards.min(hosts);
    let (Some(short), Some(long)) = (hosts.checked_div(workers), hosts.checked_rem(workers)) else {
        return Vec::new();
    };
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let end = start + short + u32::from(w < long);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// Serve the scrape endpoint from a named background thread. The server
/// loop itself lives in `crate::server`, which stays free of concurrency
/// primitives.
#[expect(clippy::disallowed_methods, reason = "the scrape server's thread")]
pub fn spawn_server(
    state: Arc<SharedState>,
    listener: TcpListener,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("fleetd-http".to_string())
        .spawn(move || crate::server::serve(&listener, &state))
}

/// Unblock and join the scrape server: raise the stopping flag, then
/// poke `addr` with a throwaway connection so the blocking accept in
/// `server::serve` returns, observes the flag, and exits — dropping the
/// listener and closing the socket. Joining the handle makes the close
/// synchronous: when this returns, the port no longer accepts.
pub fn stop_server(state: &SharedState, addr: &str, handle: JoinHandle<()>) {
    state.set_stopping();
    let _ = TcpStream::connect(addr);
    let _ = handle.join();
}

// ---------------------------------------------------------------------
// Graceful shutdown (SIGINT / SIGTERM)
// ---------------------------------------------------------------------

/// Process-wide stop flag. The signal handler may do nothing but a
/// single atomic store (async-signal-safety), so delivery is decoupled
/// from draining: handlers set this flag, and [`Fleet::drive`] polls it
/// between rounds via [`stop_requested`].
#[expect(
    clippy::disallowed_types,
    reason = "the only state a signal handler may touch"
)]
static STOP: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)`/`raise(3)` — the workspace's only foreign calls
    /// (each call site expects `unsafe_code`): std exposes no
    /// signal-disposition API, and fleetd must drain its shards instead
    /// of aborting mid-round when the operator sends Ctrl-C or SIGTERM.
    /// The handler travels as a plain pointer-sized value, which is what
    /// `signal(2)` takes on every platform fleetd runs on.
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

/// Async-signal-safe stop handler: one atomic store, nothing else.
extern "C" fn on_stop_signal(_signum: i32) {
    STOP.store(true, Ordering::Release);
}

/// Route `SIGINT` (Ctrl-C) and `SIGTERM` to the stop flag. Call once at
/// daemon startup, before the first round. Registration failures are
/// ignored: the daemon still runs, it just dies unsolicited on signal —
/// exactly the pre-handler behaviour.
#[expect(unsafe_code, reason = "libc signal(2); std has no signal API")]
pub fn install_stop_handlers() {
    unsafe {
        signal(SIGINT, on_stop_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_stop_signal as extern "C" fn(i32) as usize);
    }
}

/// Has a stop signal (or [`request_stop`]) arrived?
pub fn stop_requested() -> bool {
    STOP.load(Ordering::Acquire)
}

/// Arm the stop flag without a signal (tests, embedders).
pub fn request_stop() {
    STOP.store(true, Ordering::Release);
}

/// Re-arm: clear a consumed stop request (test isolation).
pub fn clear_stop() {
    STOP.store(false, Ordering::Release);
}

/// Deliver `SIGTERM` to the current process — the test hook for the
/// real handler path (`tests/shutdown.rs`); libc `raise(3)` runs the
/// handler synchronously on the calling thread before returning.
#[expect(unsafe_code, reason = "libc raise(3); std has no signal API")]
pub fn raise_sigterm() {
    unsafe {
        raise(SIGTERM);
    }
}

/// Shard worker body: builds hosts `ids` and their series, sends `Ok` or
/// the first build error on `built`, then owns them and answers commands
/// until Stop. A host is a function of (fleet seed, id) alone, whichever
/// worker builds it.
#[expect(
    clippy::disallowed_types,
    reason = "a worker's build, command and report channels"
)]
fn worker_main(
    cfg: FleetConfig,
    names: Arc<Vec<String>>,
    ids: Range<u32>,
    build: impl Fn(u32, u64) -> Result<HostSim, String>,
    built: Sender<Result<(), String>>,
    rx: Receiver<Cmd>,
    report: Sender<ShardReport>,
) {
    let columns = names.len();
    let span = obs::span!("fleet.shard_build");
    let hosts: Result<Vec<HostSim>, String> = ids.map(|id| build(id, cfg.seed)).collect();
    let mut hosts = match hosts {
        Ok(hosts) => hosts,
        Err(e) => {
            let _ = built.send(Err(e));
            return;
        }
    };
    let mut db = Db::new();
    let fields: Vec<&str> = names.iter().map(String::as_str).collect();
    let series: Vec<SeriesId> = hosts
        .iter()
        .map(|h| db.series_handle("fleet_host", &[("host", &h.id.to_string())], &fields))
        .collect();
    drop(span);
    let _ = built.send(Ok(()));
    drop(built);
    let mut values: Vec<f64> = Vec::with_capacity(columns);
    let mut rounds = 0u64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Round => {
                let t0 = obs::clock::now_ns();
                let _s = obs::span!("fleet.shard_round");
                rounds += 1;
                let mut points = 0u64;
                for (h, sid) in hosts.iter_mut().zip(series.iter()) {
                    h.advance(cfg.epochs_per_round, cfg.record_streams);
                    values.clear();
                    values.extend(h.totals.iter().map(|v| *v as f64));
                    db.ingest(*sid, h.epochs_done, &values);
                    points += 1;
                }
                db.publish_metrics();
                if cfg.retention_rounds > 0 && rounds > cfg.retention_rounds {
                    // Drop rows older than the retention window: kept
                    // timestamps are the last `retention_rounds` rounds'
                    // epoch marks.
                    let cutoff = (rounds - cfg.retention_rounds) * cfg.epochs_per_round;
                    let _ = db.delete_range("fleet_host", 0, cutoff + 1);
                }
                let mut sums = vec![0u64; columns];
                let mut hists = vec![Histogram::default(); columns];
                let mut headline = Vec::with_capacity(hosts.len());
                for h in &hosts {
                    for ((s, hist), v) in sums.iter_mut().zip(hists.iter_mut()).zip(h.totals.iter())
                    {
                        *s += *v;
                        hist.record(*v);
                    }
                    headline.push((h.id, h.headline()));
                }
                let done = ShardReport {
                    round_ns: obs::clock::now_ns().saturating_sub(t0),
                    epochs: cfg.epochs_per_round * hosts.len() as u64,
                    points,
                    resident_bytes: db.resident_bytes() as u64,
                    sums,
                    hists,
                    headline,
                };
                if report.send(done).is_err() {
                    return;
                }
            }
            Cmd::Dump(reply) => {
                let mut out = String::new();
                for h in &hosts {
                    out.push_str(&h.stream);
                }
                let _ = reply.send(out);
            }
            Cmd::Stop => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_build_error_fails_launch_and_joins_every_worker() {
        // Every worker holds a clone of `build`, and so of `alive`, until
        // its body returns.
        let alive = Arc::new(());
        let token = Arc::clone(&alive);
        let build = move |id: u32, seed: u64| {
            let _hold = &token;
            if id == 2 {
                return Err(format!("host {id} failed to build"));
            }
            HostSim::new(id, seed)
        };
        let cfg = FleetConfig {
            hosts: 6,
            shards: 3,
            ..FleetConfig::default()
        };
        let err = Fleet::launch_with(cfg, build).err();
        assert_eq!(err.as_deref(), Some("host 2 failed to build"));
        assert_eq!(Arc::strong_count(&alive), 1, "a worker is still running");
    }

    #[test]
    fn hosts_split_evenly_over_at_most_one_worker_per_host() {
        let sizes = |hosts, shards| -> Vec<u32> {
            let ranges = shard_ranges(hosts, shards);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges tile 0..{hosts} in order");
                next = r.end;
            }
            assert_eq!(next, hosts);
            ranges.iter().map(|r| r.end - r.start).collect()
        };
        assert_eq!(sizes(6, 4), [2, 2, 1, 1]);
        assert_eq!(sizes(10, 4), [3, 3, 2, 2]);
        assert_eq!(sizes(128, 2), [64, 64]);
        assert_eq!(sizes(3, 8), [1, 1, 1]);
    }
}
