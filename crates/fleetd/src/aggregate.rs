//! Fleet roll-ups: per-counter aggregates across hosts.
//!
//! Each shard records every counter's per-host cumulative value in an
//! `obs::metrics::Histogram` (one log2 bucket per power of two) and sums
//! it; the coordinator merges the shards' histograms and sums into one
//! [`CounterStat`] per counter: the fleet sum and the p50/p95/p99 of the
//! per-host values.

/// One counter's fleet-wide roll-up: the sum and the distribution of
/// per-host cumulative values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterStat {
    pub sum: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}
