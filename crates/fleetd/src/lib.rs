//! fleetd — the continuous-profiling collector daemon ("fleet mode").
//!
//! The batch figure-runner (`crates/bench`) answers "what does one host
//! look like for one figure"; fleetd answers the paper's production pitch:
//! PathFinder-style profiling is cheap enough to run *continuously* over a
//! fleet. It advances N simulated [`simarch::Machine`]s concurrently in
//! long-lived per-shard worker loops (generalizing
//! `bench::scenario::map_scenarios`'s one-shot scoped-thread fan-out),
//! streams every host's full counter set into a per-shard columnar
//! [`tsdb::Db`] via the allocation-free `series_handle`/`ingest` path, and
//! exposes the fleet over a std-only TCP endpoint in Prometheus text
//! exposition format.
//!
//! Layering (see FLEET.md for the full architecture):
//!
//! * [`host`] — one simulated host: a small `Machine` plus cumulative
//!   counter totals in `pmu::registry::all_events()` column order, read
//!   from the machine's counters by `pmu::SystemPmu::totals_into`;
//! * [`aggregate`] — per-counter fleet roll-ups (sum + p50/p95/p99 across
//!   hosts, from merged `obs::metrics::Histogram`s);
//! * [`shard`] — the only concurrency in the crate, each use under an
//!   item-level `#[expect]` of the root `clippy.toml`'s bans: worker
//!   threads, command and report channels, the shared scrape snapshot,
//!   and the [`shard::Fleet`] coordinator;
//! * [`server`] — the scrape endpoint (`/metrics`, `/healthz`), free of
//!   concurrency primitives itself.
//!
//! Correctness anchor: with a fixed seed, the per-host counter streams are
//! byte-identical regardless of shard count — sharding is a throughput
//! knob, never a semantic one. The daemon surface denies clippy's panic
//! lints, and for its non-test code indexing, string slicing, integer
//! division and the assert macros too; it routes every wall-clock read
//! through [`obs::clock`].

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

pub mod aggregate;
pub mod host;
pub mod server;
pub mod shard;

/// Configuration for one fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of simulated hosts.
    pub hosts: u32,
    /// Number of shard worker threads; hosts are split into contiguous
    /// id ranges, one range per shard.
    pub shards: u32,
    /// Fleet seed; each host derives its own stream seed from this and
    /// its id, so host streams are independent of shard assignment.
    pub seed: u64,
    /// Simulated epochs each host advances per round.
    pub epochs_per_round: u64,
    /// Keep at most this many rounds of samples per shard DB; older rows
    /// are dropped via `tsdb::Db::delete_range`. `0` disables retention.
    pub retention_rounds: u64,
    /// Record every host's counter stream as CSV text (id,ts,v0,v1,...)
    /// for the determinism tests and `Fleet::dump_streams`.
    pub record_streams: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            hosts: 100,
            shards: 2,
            seed: 0xF1EE7,
            epochs_per_round: 1,
            retention_rounds: 16,
            record_streams: false,
        }
    }
}

impl FleetConfig {
    /// Sanity-check the knobs before launching workers.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err("fleet needs at least one host".to_string());
        }
        if self.shards == 0 {
            return Err("fleet needs at least one shard".to_string());
        }
        if self.epochs_per_round == 0 {
            return Err("epochs_per_round must be positive".to_string());
        }
        Ok(())
    }
}
